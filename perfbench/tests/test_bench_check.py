"""The geometry-based output checker accepts real reports and rejects broken ones."""

from __future__ import annotations

import contextlib
import copy
import io
import json

import numpy as np

import check
import instances as gen
import reference
from multiflow import build_conflict_graph, cli, load_instance


def run_cli(tmp_path, command, inst, *options, demand=None) -> dict:
    """Run one CLI command in-process on a generated instance; return its JSON report."""
    path = gen.write_json(tmp_path / "instance.json", inst)
    argv = [command, str(path), *options, "--format", "json"]
    if demand is not None:
        argv += ["--demand", str(gen.write_json(tmp_path / "demand.json", demand))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


def test_geometry_matches_the_package_numbering(tmp_path):
    inst = gen.grid(4, 3, coded=True)
    geo = check.geometry(inst)
    net = load_instance(gen.write_json(tmp_path / "g.json", inst)).network
    assert list(geo.links) == [(lk.tail, lk.head) for lk in net.links]
    assert [(t, tuple(sorted(h))) for t, h in geo.arcs] == [(a.tail, tuple(sorted(a.heads))) for a in net.hyperarcs]
    gh = build_conflict_graph(net, "hyperarc")
    assert int(np.triu(geo.arc_conflicts(), 1).sum()) == gh.edge_count


def test_independence_follows_the_protocol_model():
    geo = check.geometry(gen.grid(4, 4))
    index = {lk: k + 1 for k, lk in enumerate(geo.links)}
    # node 3's transmission reaches node 2, the receiver of 1 -> 2
    assert not check.independent(geo, [index[(1, 2)], index[(3, 4)]])
    assert check.independent(geo, [index[(1, 2)], index[(15, 16)]])
    assert not check.independent(geo, [len(geo.arcs) + 1])


def test_schedule_with_two_conflicting_links_fails():
    geo = check.geometry(gen.grid(4, 4))
    index = {lk: k + 1 for k, lk in enumerate(geo.links)}
    demand = np.zeros(len(geo.links))
    demand[index[(1, 2)] - 1] = demand[index[(3, 4)] - 1] = 0.5
    bound = check.neighborhood_bound(geo, demand)
    report = {
        "schedule": [{"set": [index[(1, 2)], index[(3, 4)]], "lambda": 0.5}],
        "length": 0.5,
        "neighborhood_bound": bound,
    }
    problems = check.check_schedule(geo, demand, report, None)
    assert any("conflict" in p for p in problems)
    serial = dict(report, schedule=[{"set": [index[(1, 2)]], "lambda": 0.5}, {"set": [index[(3, 4)]], "lambda": 0.5}], length=1.0)
    assert check.check_schedule(geo, demand, serial, None) == []


def test_real_greedy_and_exact_schedules_pass(tmp_path):
    inst = gen.grid(4, 3, coded=True)
    demand = gen.uniform_demand(gen.rng_for(3, "d"), inst)
    geo = check.geometry(inst)
    d = check.demand_array(geo, demand)
    greedy = run_cli(tmp_path, "schedule", inst, "--algorithm", "cfs", "--cap", "1000", demand=demand)
    exact = run_cli(tmp_path, "schedule", inst, "--algorithm", "exact", "--cap", "1000", demand=demand)
    assert check.check_schedule(geo, d, greedy, None) == []
    assert check.check_schedule(geo, d, exact, exact["optimal_length"]) == []
    assert check.check_schedule(geo, d, exact, exact["optimal_length"] * 0.99)
    short = copy.deepcopy(greedy)
    short["schedule"][0]["lambda"] /= 2
    short["length"] = sum(e["lambda"] for e in short["schedule"])
    assert any("short" in p for p in check.check_schedule(geo, d, short, None))


def test_real_solve_passes_and_tampering_fails(tmp_path):
    inst = gen.with_commodities(gen.grid(4, 3, coded=True), gen.corner_triple(4, 3))
    geo = check.geometry(inst)
    pairs = gen.corner_triple(4, 3)
    report = run_cli(tmp_path, "solve", inst, "--cap", "1000")
    assert check.check_solve(geo, pairs, report, 131 / 151) == []
    assert check.check_solve(geo, pairs, report, 0.9)

    overbudget = copy.deepcopy(report)
    for entry in overbudget["schedule"]:
        entry["lambda"] *= 1.5
    assert any("shares sum" in p for p in check.check_solve(geo, pairs, overbudget, 131 / 151))

    leaky = copy.deepcopy(report)
    key = next(iter(leaky["commodities"][0]["flow"]))
    leaky["commodities"][0]["flow"][key] += 0.01
    assert any("leaks" in p or "capacity" in p for p in check.check_solve(geo, pairs, leaky, 131 / 151))


def test_compare_and_inspect_checks(tmp_path):
    inst = gen.with_commodities(gen.grid(4, 3, coded=True), gen.corner_triple(4, 3))
    report = run_cli(tmp_path, "compare", inst, "--cap", "1000")
    assert check.check_compare(report, 2 / 3, 131 / 151) == []
    assert check.check_compare(report, 0.7, 131 / 151)

    coded = gen.grid(4, 3, coded=True)
    listing = run_cli(tmp_path, "inspect", coded, "--cap", "1000")
    ref = reference.catalog(check.geometry(coded))
    assert check.check_inspect(check.geometry(coded), listing, ref) == []
    listing["catalog"].pop()
    assert check.check_inspect(check.geometry(coded), listing, ref)
