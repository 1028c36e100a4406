"""The package's simplex against HiGHS, used here as an independent oracle only."""

import numpy as np
import pytest

import multiflow.mmf as mmf_module
from multiflow import (
    Commodity,
    build_conflict_graph,
    build_network,
    enumerate_schedulable_sets,
    optimal_fractional_schedule,
    solve_mmf,
)
from multiflow.lp import solve_lp

from helpers import (
    as_program,
    coded_grid,
    every_set_priced,
    random_lp,
    relay_coded,
    relay_commodities,
)

linprog = pytest.importorskip("scipy.optimize").linprog

HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def highs(program):
    """(status, value) of the same array program, solved by HiGHS.

    HiGHS's presolve may call an unbounded program infeasible, so an
    infeasible verdict is checked by solving with a zero objective.
    """
    eq = program.equal
    constraints = dict(
        A_ub=program.rows[~eq] if (~eq).any() else None,
        b_ub=program.bounds[~eq] if (~eq).any() else None,
        A_eq=program.rows[eq] if eq.any() else None,
        b_eq=program.bounds[eq] if eq.any() else None,
        bounds=(0, None),
        method="highs",
    )
    res = linprog(-program.objective, **constraints)
    status = HIGHS_STATUS[res.status]
    if status == "infeasible" and linprog(np.zeros(program.num_vars), **constraints).status == 0:
        status = "unbounded"
    return status, (-res.fun if status == "optimal" else None)


def test_random_lp_optima_match_highs():
    rng = np.random.default_rng(83)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(300):
        objective, rows = random_lp(rng)
        program = as_program(objective, rows)
        status, value = highs(program)
        out = solve_lp(program)
        assert out.status == status, (objective, rows)
        if status == "optimal":
            assert abs(out.value - value) <= 1e-7 * max(1.0, abs(value)), (objective, rows)
        seen[status] += 1
    assert all(count >= 20 for count in seen.values()), seen


@pytest.mark.parametrize("coded", [False, True])
def test_covering_lengths_on_4x4_grids_match_highs(coded):
    grid = coded_grid(4, 4)
    net = grid if coded else build_network(grid.nodes)
    catalog = enumerate_schedulable_sets(build_conflict_graph(net, "hyperarc"), 10**5)
    assert len(catalog) == (2861 if coded else 830)
    rng = np.random.default_rng(7 + coded)
    for _ in range(3):
        d = rng.uniform(0.0, 0.2, net.link_count)
        _, length = optimal_fractional_schedule(d, catalog)
        # HiGHS prices every set, the package the link-maximal ones alone
        res = linprog(
            np.ones(len(catalog)),
            A_ub=-catalog.incidence.T.astype(float),
            b_ub=-d,
            bounds=(0, None),
            method="highs",
        )
        assert res.status == 0
        assert abs(length - res.fun) <= 1e-9 * max(1.0, res.fun)


def test_a_coded_throughput_over_link_maximal_sets_matches_highs_over_every_set(monkeypatch):
    # the coded 4x3 corner: 120 of its 369 sets are link-maximal, and the optimum is 131/151
    net = coded_grid(4, 3)
    coms = (Commodity(1, 12), Commodity(12, 1), Commodity(4, 9))
    sol = solve_mmf(net, coms, "coding", cap=100)
    assert np.count_nonzero(sol.catalog.link_maximal) == 120 and len(sol.catalog) == 369

    class Captured(Exception):
        pass

    def capture(program, exact_check=False):
        programs.append(program)
        raise Captured

    programs = []
    every_set_priced(monkeypatch)
    monkeypatch.setattr(mmf_module, "solve_lp", capture)
    with pytest.raises(Captured):
        solve_mmf(net, coms, "coding", cap=100)
    (program,) = programs
    assert program.num_vars == len(coms) * net.link_count + 369
    status, value = highs(program)
    assert status == "optimal"
    assert sol.throughput == pytest.approx(value, rel=1e-9) == 131 / 151


@pytest.mark.parametrize("mode", ["plain", "coding"])
def test_mixed_bandwidth_relay_throughput_matches_highs(mode):
    # two links at 1e9 and two at 1: the throughput LP spans nine orders of magnitude
    net, coms = relay_coded(), relay_commodities()
    bw = np.array([1e9, 1.0, 1.0, 1e9])
    sol = solve_mmf(net, coms, mode, bw)
    incidence = sol.catalog.incidence
    n, k, sets = net.link_count, len(coms), len(incidence)
    # variables: commodity i's flow on link a at i*n + (a-1), then one share per set
    A_eq, b_eq = [], []
    for i, com in enumerate(coms):
        for node in net.nodes:
            if node.id in (com.source, com.sink):
                continue
            row = np.zeros(k * n + sets)
            for lk in net.links:
                row[i * n + lk.index - 1] += (lk.head == node.id) - (lk.tail == node.id)
            A_eq.append(row)
            b_eq.append(0.0)
    A_ub = np.zeros((n + 1, k * n + sets))
    for a in range(n):  # flow on link a is at most bw[a] times its airtime
        A_ub[a, a : k * n : n] = 1.0
        A_ub[a, k * n :] = -bw[a] * incidence[:, a]
    A_ub[n, k * n :] = 1.0
    c = np.zeros(k * n + sets)
    for i, com in enumerate(coms):
        for lk in net.links:
            c[i * n + lk.index - 1] = (lk.tail == com.source) - (lk.head == com.source)
    b_ub = np.append(np.zeros(n), 1.0)
    res = linprog(-c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, method="highs")
    assert res.status == 0
    assert sol.throughput == pytest.approx(-res.fun, rel=1e-9)
    assert sol.throughput == pytest.approx(5e8, rel=1e-9)
