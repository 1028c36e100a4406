"""Reference values the checker compares each optimum against.

Catalogs (size, contents, inductive schedulable number) come from the
benchmark's own Bron-Kerbosch over the geometry-derived conflict graph,
so they share no code with the package. LP optima (throughput, coding
gain, exact schedule length) are computed once per case through the
package's library API, outside the timed region and in a process of their
own; the benchmark's tests cross-check these values against an
independent LP solver (HiGHS). Where a case carries a pinned optimum, the
pinned value is the reference and the package is not consulted.
"""

from __future__ import annotations

import numpy as np

import check
from workloads import BIG_CAP, Case


def bits(x: int):
    """Positions of the set bits of ``x``, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def maximal_independent_sets(conflict: np.ndarray) -> list[int]:
    """Every maximal independent set of a conflict graph, as vertex bitmasks.

    Bron-Kerbosch with pivoting on the complement graph, with vertex sets
    held in Python integers.
    """
    n = len(conflict)
    compat = []
    for v in range(n):
        row = 0
        for u in np.flatnonzero(~conflict[v]):
            if u != v:
                row |= 1 << int(u)
        compat.append(row)
    found: list[int] = []

    def expand(chosen: int, cand: int, excl: int) -> None:
        if not cand and not excl:
            found.append(chosen)
            return
        pivot = max(bits(cand | excl), key=lambda u: (cand & compat[u]).bit_count())
        for v in bits(cand & ~compat[pivot]):
            expand(chosen | (1 << v), cand & compat[v], excl & compat[v])
            cand &= ~(1 << v)
            excl |= 1 << v

    if n:
        expand(0, (1 << n) - 1, 0)
    return found


def catalog(geo: check.Geometry) -> dict:
    """The hyperarc-level catalog as `inspect` reports it."""
    sets = maximal_independent_sets(geo.arc_conflicts())
    link_sets = [sorted({p for v in bits(s) for p in geo.arc_links[v]}) for s in sets]
    inc = geo.incidence(link_sets).astype(np.int64)
    isn = int((inc @ geo.link_conflicts().astype(np.int64)).max(initial=0))
    return {
        "catalog_size": len(sets),
        "catalog_digest": check.catalog_digest([[p + 1 for p in ls] for ls in link_sets]),
        "isn": isn,
    }


def _library_optimum(case: Case, instance_path, demand_path) -> dict:
    from multiflow.conflict import build_conflict_graph, enumerate_schedulable_sets
    from multiflow.instance import load_demand, load_instance
    from multiflow.mmf import optimal_fractional_schedule, solve_mmf

    inst = load_instance(instance_path)
    cap = int(BIG_CAP)

    def throughput(mode: str) -> float:
        return solve_mmf(inst.network, inst.commodities, mode=mode, cap=cap).throughput

    if case.command in ("solve", "certify"):
        return {"throughput": throughput(case.mode)}
    if case.command == "compare":
        return {"plain": throughput("plain"), "coding": throughput("coding")}
    demand = load_demand(demand_path, inst.network)
    cat = enumerate_schedulable_sets(build_conflict_graph(inst.network, "hyperarc"), cap)
    return {"length": optimal_fractional_schedule(demand, cat)[1]}


def reference(case: Case, instance_path, demand_path) -> dict:
    """Reference optima for one case; an empty dict when the case has none."""
    if case.command == "inspect":
        ref = catalog(check.geometry(case.instance))
        for key, want in case.pinned.items():
            if ref[key] != want:
                raise RuntimeError(f"{case.name}: reference {key} {ref[key]} != pinned {want}")
        return ref
    if case.command == "schedule" and "exact" not in case.options:
        return {}
    if case.pinned:
        return {key: float(value) for key, value in case.pinned.items()}
    return _library_optimum(case, instance_path, demand_path)
