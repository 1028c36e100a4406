"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they happen; plain ``pytest`` shows one PASSED/FAILED row per criterion.
"""

import time

import numpy as np

from multiflow import (
    build_conflict_graph,
    cfs_length_bound,
    cfs_schedule,
    closed_neighborhoods,
    coding_first_ordering,
    enumerate_schedulable_sets,
    optimal_fractional_schedule,
    solve_mmf,
)
from multiflow.conflict import inductive_schedulable_number
from multiflow.lp import solve_lp

from helpers import (
    as_program,
    brute_force_lp,
    brute_force_max_independent_sets,
    random_commodities,
    random_demand,
    random_graph,
    random_lp,
    random_network,
    relay_coded,
    relay_commodities,
    relay_plain,
    schedule_capacity,
)


def report(name: str, passed: bool, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if passed else 'FAIL'}  {name}{suffix}")
    assert passed, f"{name}{suffix}"


def certificate_covers(sol, bandwidth=None) -> bool:
    total = sol.flows.sum(axis=0)
    cap = schedule_capacity(sol, bandwidth)
    return bool(np.all(total <= cap + 1e-9))


def test_criterion_01_plain_throughput_one_half():
    start = time.perf_counter()
    sol = solve_mmf(relay_plain(), relay_commodities(), mode="plain")
    elapsed = time.perf_counter() - start
    ok = (
        abs(sol.throughput - 0.5) <= 1e-6
        and sum(sol.schedule_weights.values()) <= 1.0 + 1e-9
        and certificate_covers(sol)
        and elapsed < 1.0
    )
    report(
        "criterion 1: plain two-way relay reaches throughput 1/2 with a certificate",
        ok,
        f"throughput={sol.throughput:.9f} time={elapsed * 1000:.0f}ms",
    )


def test_criterion_02_coding_throughput_two_thirds():
    start = time.perf_counter()
    sol = solve_mmf(relay_coded(), relay_commodities(), mode="coding")
    elapsed = time.perf_counter() - start
    broadcast_used = any(
        sol.catalog.sublink_sets[j] == frozenset({3, 4})
        for j, w in sol.schedule_weights.items()
        if w > 1e-9
    )
    ok = (
        abs(sol.throughput - 2.0 / 3.0) <= 1e-6
        and sum(sol.schedule_weights.values()) <= 1.0 + 1e-9
        and certificate_covers(sol)
        and broadcast_used
        and elapsed < 1.0
    )
    report(
        "criterion 2: coded two-way relay reaches throughput 2/3 using sub-link set {3,4}",
        ok,
        f"throughput={sol.throughput:.9f} time={elapsed * 1000:.0f}ms",
    )


def test_criterion_03_optimal_schedule_lengths():
    plain_cat = enumerate_schedulable_sets(build_conflict_graph(relay_plain(), "link"))
    coded_cat = enumerate_schedulable_sets(build_conflict_graph(relay_coded(), "hyperarc"))
    _, len_plain = optimal_fractional_schedule(np.full(4, 0.25), plain_cat)
    _, len_coded = optimal_fractional_schedule(np.full(4, 1.0 / 3.0), coded_cat)
    ok = abs(len_plain - 1.0) <= 1e-6 and abs(len_coded - 1.0) <= 1e-6
    report(
        "criterion 3: optimal schedule lengths are 1 for the demands 1/4 (plain) and 1/3 (coded)",
        ok,
        f"plain={len_plain:.9f} coded={len_coded:.9f}",
    )


def test_criterion_04_coding_never_hurts():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst = float("inf")
    ok = True
    for _ in range(200):
        net = random_network(rng)
        coms = random_commodities(rng, net)
        plain = solve_mmf(net, coms, mode="plain").throughput
        coded = solve_mmf(net, coms, mode="coding").throughput
        worst = min(worst, coded - plain)
        if coded < plain - 1e-6:
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(
        "criterion 4: coding throughput >= plain throughput on 200 random instances",
        ok,
        f"worst gain={worst:.2e} time={elapsed:.1f}s",
    )


def _cfs_runs(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        net = random_network(rng)
        gh = build_conflict_graph(net, "hyperarc")
        demand = random_demand(rng, net)
        sched = cfs_schedule(net, gh, coding_first_ordering(gh), demand)
        yield net, gh, demand, sched


def test_criterion_05_cfs_length_within_neighborhood_bound():
    ok = True
    worst = 0.0
    for net, gh, demand, sched in _cfs_runs(500, 1005):
        nb = closed_neighborhoods(build_conflict_graph(net, "link"))
        bound = cfs_length_bound(demand, nb)
        worst = max(worst, sched.length - bound)
        if sched.length > bound + 1e-9:
            ok = False
            break
    report(
        "criterion 5: greedy schedule length within the neighborhood demand bound on 500 runs",
        ok,
        f"max length-bound={worst:.2e}",
    )


def test_criterion_06_alpha_ratio_and_degree_bound():
    rng = np.random.default_rng(1006)
    accepted = 0
    ok = True
    for _ in range(5000):
        if accepted == 100:
            break
        net = random_network(rng, require_conflict=True)
        g = build_conflict_graph(net, "link")
        nb = closed_neighborhoods(g)
        # the degree bound presumes links conflict at least as widely as
        # the broadest broadcast, so narrower instances are resampled
        if g.max_conflict_degree < net.max_weight:
            continue
        gh = build_conflict_graph(net, "hyperarc")
        catalog = enumerate_schedulable_sets(gh)
        alpha = inductive_schedulable_number(catalog, nb)
        demand = random_demand(rng, net, low=0.05)
        sched = cfs_schedule(net, gh, coding_first_ordering(gh), demand)
        _, optimal = optimal_fractional_schedule(demand, catalog)
        if sched.length > alpha * optimal + 1e-6 or alpha > g.max_conflict_degree:
            ok = False
            break
        accepted += 1
    ok = ok and accepted == 100
    report(
        "criterion 6: greedy length within alpha* times optimal, and alpha* within the conflict degree, on 100 instances",
        ok,
        f"accepted={accepted}",
    )


def test_criterion_07_cfs_delivers_demand_exactly():
    ok = True
    worst = 0.0
    for net, gh, demand, sched in _cfs_runs(500, 1005):
        gap = float(np.max(np.abs(sched.capacity(net) - demand), initial=0.0))
        worst = max(worst, gap)
        independent = all(gh.is_independent(vs) for vs, _ in sched.entries)
        if gap > 1e-9 or not independent:
            ok = False
            break
    report(
        "criterion 7: greedy schedules deliver the demand exactly with conflict-free sets",
        ok,
        f"max per-link gap={worst:.2e}",
    )


def test_criterion_08_enumeration_matches_brute_force():
    rng = np.random.default_rng(1008)
    ok = True
    for i in range(100):
        if i < 70:
            cg = random_graph(rng, min_n=1, max_n=10)
        else:
            while True:
                net = random_network(rng, max_nodes=6)
                cg = build_conflict_graph(net, "hyperarc")
                if cg.vertex_count <= 10:
                    break
        catalog = enumerate_schedulable_sets(cg)
        if set(catalog.hyperarc_sets) != brute_force_max_independent_sets(cg):
            ok = False
            break
    report(
        "criterion 8: schedulable-set enumeration matches subset filtering on 100 graphs",
        ok,
    )


def test_criterion_09_lp_matches_brute_force():
    rng = np.random.default_rng(1009)
    ok = True
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(200):
        objective, rows = random_lp(rng)
        status, value = brute_force_lp(objective, rows)
        out = solve_lp(as_program(objective, rows))
        if out.status != status:
            ok = False
            break
        if status == "optimal" and abs(out.value - float(value)) > 1e-6:
            ok = False
            break
        statuses[status] += 1
    report(
        "criterion 9: simplex matches exact vertex enumeration on 200 random programs",
        ok,
        " ".join(f"{k}={v}" for k, v in statuses.items()),
    )


def test_criterion_10_bandwidth_scaling():
    sol = solve_mmf(
        relay_plain(), relay_commodities(), mode="plain", bandwidth=np.full(4, 2.0)
    )
    ok = (
        abs(sol.throughput - 1.0) <= 1e-6
        and certificate_covers(sol, bandwidth=np.full(4, 2.0))
        and sum(sol.schedule_weights.values()) <= 1.0 + 1e-9
    )
    report(
        "criterion 10: doubling every bandwidth doubles the two-way relay throughput to 1",
        ok,
        f"throughput={sol.throughput:.9f}",
    )
