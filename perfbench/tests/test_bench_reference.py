"""Reference optima agree with HiGHS on LPs the tests assemble from geometry alone.

The benchmark computes its reference optima through the package's library
API (reference.py); here the same optima come from scipy's HiGHS solver on
an LP built from the checker's own geometry and the benchmark's own
catalog enumeration, so neither side shares code with the other.
"""

from __future__ import annotations

import numpy as np
import pytest

import check
import instances as gen
import reference
import workloads
from multiflow import build_conflict_graph, enumerate_schedulable_sets, load_instance

optimize = pytest.importorskip("scipy.optimize")


def _catalog(geo: check.Geometry, mode: str) -> np.ndarray:
    """Sub-link incidence of every maximal schedulable set (rows) over the links."""
    conflict = geo.link_conflicts() if mode == "plain" else geo.arc_conflicts()
    members = geo.arc_links[: len(geo.links)] if mode == "plain" else geo.arc_links
    if mode == "plain":
        conflict = conflict & ~np.eye(len(conflict), dtype=bool)
    sets = reference.maximal_independent_sets(conflict)
    return geo.incidence([{p for v in reference.bits(s) for p in members[v]} for s in sets]).astype(float)


def highs_throughput(inst: dict, mode: str) -> float:
    geo = check.geometry(inst)
    pairs = [(c["source"], c["sink"]) for c in inst["commodities"]]
    inc = _catalog(geo, mode)
    k, n, m = len(pairs), len(geo.links), len(inc)
    cost = np.zeros(k * n + m)
    eq_rows = []
    for i, (s, t) in enumerate(pairs):
        for a, (tail, head) in enumerate(geo.links):
            cost[i * n + a] -= (tail == s) - (head == s)
        for node in geo.ids:
            if node in (s, t):
                continue
            row = np.zeros(k * n + m)
            for a, (tail, head) in enumerate(geo.links):
                row[i * n + a] = (head == node) - (tail == node)
            eq_rows.append(row)
    ub_rows = []
    for a in range(n):
        row = np.zeros(k * n + m)
        row[[i * n + a for i in range(k)]] = 1.0
        row[k * n :] = -inc[:, a]
        ub_rows.append(row)
    budget = np.zeros(k * n + m)
    budget[k * n :] = 1.0
    ub_rows.append(budget)
    b_ub = np.zeros(len(ub_rows))
    b_ub[-1] = 1.0
    res = optimize.linprog(cost, A_ub=np.array(ub_rows), b_ub=b_ub, A_eq=np.array(eq_rows),
                           b_eq=np.zeros(len(eq_rows)), method="highs")
    assert res.status == 0
    return -res.fun


def highs_length(inst: dict, demand: dict) -> float:
    geo = check.geometry(inst)
    inc = _catalog(geo, "coding")
    d = check.demand_array(geo, demand)
    res = optimize.linprog(np.ones(len(inc)), A_ub=-inc.T, b_ub=-d, method="highs")
    assert res.status == 0
    return res.fun


def _pinned_cases():
    return [c for w in workloads.WORKLOADS for c in workloads.cases(w, 0) if c.fixed and c.pinned]


@pytest.mark.parametrize("case", _pinned_cases(), ids=lambda c: c.name)
def test_pinned_optima_match_highs(case):
    if case.command == "inspect":
        assert reference.catalog(check.geometry(case.instance))["catalog_size"] == case.pinned["catalog_size"]
        return
    for key, value in case.pinned.items():
        if key == "length":
            assert highs_length(case.instance, case.demand) == pytest.approx(value, abs=1e-7)
        else:
            mode = key if key in ("plain", "coding") else case.mode
            assert highs_throughput(case.instance, mode) == pytest.approx(float(value), abs=1e-7)


def _seeded_sample(seed: int):
    """The first seeded case of each kind, which keeps the test quick."""
    sample = {}
    for workload in ("throughput_lp", "catalog_exact"):
        for case in workloads.cases(workload, seed):
            kind = case.name.rsplit("-", 1)[0]
            if not case.fixed:
                sample.setdefault(kind, case)
    return list(sample.values())


@pytest.mark.parametrize("seed", [1, 2])
def test_library_references_match_highs(tmp_path, seed):
    for case in _seeded_sample(seed):
        path = gen.write_json(tmp_path / f"{case.name}.json", case.instance)
        demand = gen.write_json(tmp_path / f"{case.name}.d.json", case.demand) if case.demand else None
        ref = reference.reference(case, path, demand)
        if case.command == "schedule":
            assert ref["length"] == pytest.approx(highs_length(case.instance, case.demand), abs=1e-7)
        elif case.command == "compare":
            assert ref["plain"] == pytest.approx(highs_throughput(case.instance, "plain"), abs=1e-7)
            assert ref["coding"] == pytest.approx(highs_throughput(case.instance, "coding"), abs=1e-7)
        else:
            assert ref["throughput"] == pytest.approx(highs_throughput(case.instance, case.mode), abs=1e-7)


def test_own_catalog_matches_the_package(tmp_path):
    inst = gen.grid(4, 3, coded=True)
    geo = check.geometry(inst)
    net = load_instance(gen.write_json(tmp_path / "g.json", inst)).network
    cat = enumerate_schedulable_sets(build_conflict_graph(net, "hyperarc"), 1000)
    assert reference.catalog(geo)["catalog_digest"] == check.catalog_digest(cat.sublink_sets)
