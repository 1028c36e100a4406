"""The package's simplex against HiGHS, used here as an independent oracle only."""

import numpy as np
import pytest

from multiflow import (
    build_conflict_graph,
    build_network,
    enumerate_schedulable_sets,
    optimal_fractional_schedule,
)
from multiflow.lp import LinearProgram, solve_lp

from helpers import coded_grid, random_lp

linprog = pytest.importorskip("scipy.optimize").linprog

HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def highs(objective, rows):
    """(status, value) of max objective . x over rows and x >= 0, by HiGHS.

    HiGHS's presolve may call an unbounded program infeasible, so an
    infeasible verdict is checked by solving with a zero objective.
    """
    blocks = {rel: [(coeffs, b) for coeffs, r, b in rows if r == rel] for rel in ("<=", ">=", "=")}
    a_ub = [c for c, _ in blocks["<="]] + [[-v for v in c] for c, _ in blocks[">="]]
    constraints = dict(
        A_ub=np.array(a_ub, dtype=float).reshape(len(a_ub), len(objective)) if a_ub else None,
        b_ub=[b for _, b in blocks["<="]] + [-b for _, b in blocks[">="]] or None,
        A_eq=[c for c, _ in blocks["="]] or None,
        b_eq=[b for _, b in blocks["="]] or None,
        bounds=(0, None),
        method="highs",
    )
    res = linprog(-np.asarray(objective, dtype=float), **constraints)
    status = HIGHS_STATUS[res.status]
    if status == "infeasible" and linprog(np.zeros(len(objective)), **constraints).status == 0:
        status = "unbounded"
    return status, (-res.fun if status == "optimal" else None)


def test_random_lp_optima_match_highs():
    rng = np.random.default_rng(83)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(300):
        objective, rows = random_lp(rng)
        status, value = highs(objective, rows)
        out = solve_lp(LinearProgram(objective, rows))
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
        res = linprog(
            np.ones(len(catalog)), A_ub=-catalog.incidence.T, b_ub=-d, bounds=(0, None), method="highs"
        )
        assert res.status == 0
        assert abs(length - res.fun) <= 1e-9 * max(1.0, res.fun)
