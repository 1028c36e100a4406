"""Two-phase simplex against hand-checked cases and the exact oracle."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import multiflow.lp as lp_module
import multiflow.mmf as mmf_module
from multiflow import (
    Commodity,
    SolverError,
    ValidationError,
    build_network,
    solve_mmf,
)
from multiflow.lp import LinearProgram, _exact_certificate, _Simplex, solve_lp

from helpers import (
    as_program,
    brute_force_lp,
    coded_grid,
    dense_certificate,
    every_set_priced,
    priced_run_phase,
    random_lp,
    relay_coded,
    relay_commodities,
    relay_plain,
)


def solve(objective, rows, **kw):
    return solve_lp(as_program(objective, rows), **kw)


def test_textbook_maximum():
    # max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18
    out = solve(
        [3.0, 5.0],
        [([1.0, 0.0], "<=", 4.0), ([0.0, 2.0], "<=", 12.0), ([3.0, 2.0], "<=", 18.0)],
    )
    assert out.status == "optimal"
    assert abs(out.value - 36.0) <= 1e-9
    assert np.allclose(out.x, [2.0, 6.0], atol=1e-9)


def test_equality_row():
    # max x + y on the segment x + y = 1 in the first quadrant
    out = solve([1.0, 1.0], [([1.0, 1.0], "=", 1.0)])
    assert out.status == "optimal"
    assert abs(out.value - 1.0) <= 1e-9


def test_geq_row_and_negative_bound():
    # x >= 2 written both ways
    for rows in ([([1.0], ">=", 2.0)], [([-1.0], "<=", -2.0)]):
        out = solve([-1.0], rows)
        assert out.status == "optimal"
        assert abs(out.value + 2.0) <= 1e-9


def test_infeasible():
    out = solve([1.0], [([1.0], "<=", -1.0)])
    assert out.status == "infeasible"
    assert out.x is None and out.value is None


def test_unbounded():
    out = solve([1.0, 0.0], [([0.0, 1.0], "<=", 1.0)])
    assert out.status == "unbounded"


def test_programs_without_rows_take_the_simplex_path():
    # only x >= 0 binds: a positive cost is unbounded, otherwise x = 0 is optimal
    for exact_check in (False, True):
        assert solve([1.0, -2.0], [], exact_check=exact_check).status == "unbounded"
    for objective in ([-1.0], [0.0]):
        out = solve(objective, [], exact_check=True)
        assert out.status == "optimal" and out.value == 0.0
        assert out.x.tolist() == [0.0]
        assert out.dual.shape == (0,)
        assert out.exact_value == Fraction(0)


def test_exact_check_refuses_a_cost_below_the_pivot_tolerance():
    # 1e-10 passes the float test but makes the program unbounded exactly,
    # with or without rows
    assert solve([1e-10, -3.0], []).value == 0.0
    for rows in ([], [([0.0, 1.0], "<=", 1.0)]):
        with pytest.raises(SolverError, match="positive reduced cost"):
            solve([1e-10, -3.0], rows, exact_check=True)


def test_degenerate_cycling_guard():
    # classic Beale-style degeneracy; Bland's rule must terminate
    out = solve(
        [0.75, -150.0, 0.02, -6.0],
        [
            ([0.25, -60.0, -0.04, 9.0], "<=", 0.0),
            ([0.5, -90.0, -0.02, 3.0], "<=", 0.0),
            ([0.0, 0.0, 1.0, 0.0], "<=", 1.0),
        ],
    )
    assert out.status == "optimal"
    assert abs(out.value - 0.05) <= 1e-9


def test_zero_objective_feasibility_probe():
    out = solve([0.0, 0.0], [([1.0, 1.0], ">=", 1.0), ([1.0, 1.0], "<=", 2.0)])
    assert out.status == "optimal"
    assert abs(out.value) <= 1e-9


def test_redundant_equalities_are_survivable():
    # the same plane twice, and its double: phase 1 must drop dependents
    out = solve(
        [1.0, 1.0],
        [
            ([1.0, 1.0], "=", 1.0),
            ([1.0, 1.0], "=", 1.0),
            ([2.0, 2.0], "=", 2.0),
        ],
    )
    assert out.status == "optimal"
    assert abs(out.value - 1.0) <= 1e-9


def test_duplicate_rows_are_all_kept():
    sx = _Simplex(as_program([1.0], [([1.0], "<=", 3.0), ([1.0], "<=", 3.0)]))
    assert sx.m == 2 and sx.source.tolist() == [0, 1] and sx.b.tolist() == [3.0, 3.0]
    # every row in order, also one equal to half of an earlier equality
    rows = [
        ([1.0, 2.0], "=", 3.0),
        ([-1.0, -2.0], "<=", -3.0),  # the equality's second half
        ([0.0, 1.0], "<=", 1.0),
        ([1.0, 2.0], "<=", 3.0),  # its first half
        ([0.0, 1.0], "=", 1.0),  # the row two above, then its negation
    ]
    program = as_program([1.0, 1.0], rows)
    sx = _Simplex(program)
    assert sx.m == 7
    assert sx.source.tolist() == [0, 0, 1, 2, 3, 4, 4]
    assert sx.sign.tolist() == [1.0, -1.0, 1.0, 1.0, 1.0, 1.0, -1.0]
    assert sx.b.tolist() == [3.0, -3.0, -3.0, 1.0, 3.0, 1.0, -1.0]
    # rows with a negative bound are written negated beside their artificial
    sigma = np.where(sx.b < 0, -1.0, 1.0)
    want = program.rows[sx.source] * (sx.sign * sigma)[:, None]
    assert np.array_equal(sx.T[:, :2], want)
    # x + 2y = 3 and y = 1
    out = solve_lp(program, exact_check=True)
    assert out.x.tolist() == [1.0, 1.0] and out.exact_value == Fraction(2)


def test_normalized_rows_split_equalities():
    sx = _Simplex(as_program([1.0, 0.0], [([1.0, 2.0], "=", 3.0), ([0.0, 1.0], "<=", 4.0)]))
    assert sx.m == 3
    assert sx.source.tolist() == [0, 0, 1] and sx.sign.tolist() == [1.0, -1.0, 1.0]
    assert sx.b.tolist() == [3.0, -3.0, 4.0]
    # -x - 2y <= -3 starts infeasible, so its tableau row is negated back with an artificial
    assert sx.art_rows.tolist() == [1]
    assert sx.T[:, :2].tolist() == [[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]]
    assert sx.T[:, -1].tolist() == [3.0, 3.0, 4.0]


def test_validation():
    cases = [
        ([[1.0]], [[1.0]], [1.0], None),  # 2-D objective
        ([1.0], [[1.0, 2.0]], [1.0], None),  # row wider than n
        ([1.0, 2.0], [[1.0]], [1.0], None),  # row narrower than n
        ([1.0], [1.0], [1.0], None),  # rows not a matrix
        ([1.0], [[1.0]], [1.0, 2.0], None),  # bounds longer than m
        ([1.0], [[1.0], [2.0]], [1.0], None),  # bounds shorter than m
        ([1.0], [[1.0]], [1.0], [True, False]),  # equal longer than m
        ([1.0], [[1.0], [2.0]], [1.0, 2.0], [True]),  # equal shorter than m
        ([float("nan")], [[1.0]], [1.0], None),  # non-finite objective
        ([1.0], [[float("inf")]], [1.0], None),  # non-finite coefficient
        ([1.0], [[float("nan")]], [1.0], None),
        ([1.0], [[1.0]], [float("inf")], None),  # non-finite bound
        ([1.0], [[1.0]], [float("nan")], [True]),
    ]
    for objective, rows, bounds, equal in cases:
        with pytest.raises(ValidationError):
            LinearProgram(objective, rows, bounds, equal)


def test_dual_certificate_on_clean_instances():
    # one price per program row, free on equalities and nonnegative elsewhere,
    # that reproduces the objective value (strong duality) and is dual feasible
    rng = np.random.default_rng(17)
    seen = equalities = 0
    for _ in range(3000):
        if seen == 40:
            break
        objective, rows = random_lp(rng)
        program = as_program(objective, rows)
        out = solve_lp(program)
        if out.status != "optimal":
            continue
        y = out.dual
        assert y.shape == (len(rows),)
        assert np.all(y[~program.equal] >= -1e-9)
        assert abs(float(y @ program.bounds) - out.value) <= 1e-6
        assert np.all(program.rows.T @ y >= program.objective - 1e-6)
        equalities += int(program.equal.any())
        seen += 1
    assert seen == 40
    assert equalities >= 10


def test_split_and_duplicate_rows_fold_into_program_row_duals():
    # x + y = 1 twice: the two copies share the price of the one plane
    program = as_program([2.0, 1.0], [([1.0, 1.0], "=", 1.0), ([1.0, 1.0], "=", 1.0)])
    out = solve_lp(program)
    assert out.value == 2.0 and float(out.dual.sum()) == 2.0
    assert float(out.dual @ program.bounds) == out.value
    assert np.all(program.rows.T @ out.dual >= program.objective)
    # min x over x >= 1, written as x = 1: the equality prices at -1
    out = solve([-1.0], [([1.0], "=", 1.0)])
    assert out.value == -1.0 and out.dual.tolist() == [-1.0]


def test_programs_without_variables_take_the_simplex_path():
    out = solve_lp(LinearProgram([], np.zeros((2, 0)), [1.0, 0.0]), exact_check=True)
    assert out.status == "optimal" and out.value == 0.0
    assert out.x.shape == (0,)
    assert out.dual.tolist() == [0.0, 0.0]
    assert out.exact_value == Fraction(0)
    assert solve_lp(LinearProgram([], np.zeros((2, 0)), [-1.0, 0.0])).status == "infeasible"


def with_repeat(rng, rows):
    """The rows plus a copy of one, at a random place: verbatim, or an equality's second half."""
    coeffs, rel, bound = rows[int(rng.integers(len(rows)))]
    if rel == "=" and rng.random() < 0.5:
        coeffs, rel, bound = [-v for v in coeffs], "<=", -bound
    at = int(rng.integers(len(rows) + 1))
    return rows[:at] + [(coeffs, rel, bound)] + rows[at:]


def test_repeated_rows_match_the_oracle_and_certify_the_same_value():
    rng = np.random.default_rng(29)
    outcomes = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(300):
        objective, rows = random_lp(rng)
        repeated = with_repeat(rng, rows)
        status, value = brute_force_lp(objective, repeated)
        out = solve(objective, repeated)
        assert out.status == status, (objective, repeated, out.status, status)
        outcomes[status] += 1
        if status == "optimal":
            assert abs(out.value - float(value)) <= 1e-6, (objective, repeated)
            exact = solve(objective, repeated, exact_check=True).exact_value
            assert exact == solve(objective, rows, exact_check=True).exact_value == value
    assert all(v > 0 for v in outcomes.values()), outcomes


def test_exact_check_certifies_optimal_value():
    rng = np.random.default_rng(23)
    seen = 0
    for _ in range(3000):
        if seen == 60:
            break
        objective, rows = random_lp(rng)
        out = solve(objective, rows)
        if out.status != "optimal":
            continue
        exact = solve(objective, rows, exact_check=True)
        assert exact.exact_value is not None
        assert isinstance(exact.exact_value, Fraction)
        assert abs(float(exact.exact_value) - exact.value) <= 1e-6
        seen += 1
    assert seen == 60


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(101)
    outcomes = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(120):
        objective, rows = random_lp(rng)
        status, value = brute_force_lp(objective, rows)
        out = solve(objective, rows)
        assert out.status == status, (objective, rows, out.status, status)
        if status == "optimal":
            assert abs(out.value - float(value)) <= 1e-6, (objective, rows)
        outcomes[status] += 1
    # the generator must exercise every outcome
    assert all(v > 0 for v in outcomes.values()), outcomes


# ---------------------------------------------------------------------------
# the sparse exact certificate against the dense oracle


@pytest.fixture
def certificates(monkeypatch):
    """Route every exact check through both certificates; collect what they saw."""
    seen = []

    def both(objective, A, b, basis):
        value = _exact_certificate(objective, A, b, basis)
        assert type(value) is Fraction
        assert value == dense_certificate(objective, A, b, basis)
        seen.append((objective, A, b, basis, value))
        return value

    monkeypatch.setattr(lp_module, "_exact_certificate", both)
    return seen


def test_sparse_certificate_matches_dense_oracle_on_random_lps(certificates):
    rng = np.random.default_rng(29)
    with_duplicates = 0
    for k in range(3000):
        if len(certificates) == 80:
            break
        objective, rows = random_lp(rng)
        if k % 2:
            # an exact duplicate, which normalization drops, and a doubled copy
            coeffs, rel, bound = rows[0]
            rows = rows + [rows[0], ([2 * v for v in coeffs], rel, 2 * bound)]
        before = len(certificates)
        solve(objective, rows, exact_check=True)
        if k % 2 and len(certificates) > before:
            with_duplicates += 1
    assert len(certificates) == 80
    assert with_duplicates >= 20
    assert sum(bool(np.any(b < 0)) for _, _, b, *_ in certificates) >= 20  # artificials
    # the sum of all rows is implied by them: appending it with its slack
    # basic must not change the value
    for objective, A, b, basis, value in certificates:
        A2, b2 = np.vstack([A, A.sum(axis=0)]), np.append(b, b.sum())
        basis2 = basis + [objective.size + A.shape[0]]
        assert _exact_certificate(objective, A2, b2, basis2) == value
        assert dense_certificate(objective, A2, b2, basis2) == value


def test_sparse_certificate_matches_dense_oracle_on_throughput_lps(certificates):
    corner_triple = (Commodity(1, 9), Commodity(9, 1), Commodity(3, 7))
    cases = [
        (relay_plain(), relay_commodities(), "plain", Fraction(1, 2)),
        (relay_coded(), relay_commodities(), "coding", Fraction(2, 3)),
        (coded_grid(3, 3), corner_triple, "coding", Fraction(1)),
    ]
    for net, commodities, mode, expected in cases:
        sol = solve_mmf(net, commodities, mode=mode, cap=1000, exact_check=True)
        assert sol.exact_throughput == expected
    assert len(certificates) == len(cases)


# max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18, and optionally x + y <= 7;
# columns 0, 1 are x, y and 2 + r is the slack of row r
TEXTBOOK_C = np.array([3.0, 5.0])
TEXTBOOK_A = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0], [1.0, 1.0]])
TEXTBOOK_B = np.array([4.0, 12.0, 18.0, 7.0])


def test_certificate_of_the_optimal_basis():
    for certify in (_exact_certificate, dense_certificate):
        value = certify(TEXTBOOK_C, TEXTBOOK_A[:3], TEXTBOOK_B[:3], [2, 1, 0])
        assert value == 36


@pytest.mark.parametrize(
    "sign, rows, basis, message",
    [
        (1, 3, [0, 0, 2], "singular basis"),  # x twice
        (1, 4, [0, 1, 2, 2], "singular basis"),  # the slack of x <= 4 twice
        (1, 3, [0, 2, 3], "negative basic variable"),  # x = 6 overruns x <= 4
        (1, 4, [0, 1, 2, 5], "negative basic variable"),  # (2, 6) overruns x + y <= 7
        (1, 3, [0, 3, 4], "positive reduced cost"),  # the vertex (4, 0): y should enter
        (1, 3, [2, 3, 4], "positive reduced cost"),  # the origin
        (-1, 3, [0, 1, 2], "positive reduced cost"),  # minimizing at (2, 6): negative duals
    ],
)
def test_tampered_basis_is_rejected(sign, rows, basis, message):
    for certify in (_exact_certificate, dense_certificate):
        with pytest.raises(SolverError, match=message):
            certify(sign * TEXTBOOK_C, TEXTBOOK_A[:rows], TEXTBOOK_B[:rows], basis)


# ---------------------------------------------------------------------------
# the buffered pivot against the outer-product update it replaces


def outer_pivot(T, row, col):
    T = T.copy()
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    return T


def random_pivots(rng, sx, count):
    for _ in range(count):
        row = int(rng.integers(sx.m))
        usable = np.flatnonzero(np.abs(sx.T[row, :-1]) > 1e-3)
        if usable.size == 0:
            continue
        col = int(rng.choice(usable))
        expected = outer_pivot(sx.T, row, col)
        sx._pivot(row, col)
        assert np.array_equal(sx.T, expected)
        assert sx.basis[row] == col


def test_buffered_pivot_matches_outer_product_update():
    """Every entry equals the np.outer update's, so the pivot path cannot move.

    The BLAS product writes +0.0 where np.outer gives -0.0, so an exact zero
    may change sign; nothing compares or divides by an exact zero, and the
    renderer prints both as 0.
    """
    rng = np.random.default_rng(31)
    for _ in range(30):
        m, n = (int(v) for v in rng.integers(1, 10, size=2))
        A = rng.uniform(-4.0, 4.0, (m, n))
        b = rng.uniform(-5.0, 8.0, m)
        random_pivots(rng, _Simplex(LinearProgram(rng.uniform(-5.0, 5.0, n), A, b)), 8)


def test_artificial_columns_stay_negated_slack_columns():
    """Phase 1 never meets an all-zero row, so no row is dropped and the dual is set.

    Each artificial column starts as the exact negation of its constraint's
    slack column and every pivot keeps that bitwise, so a basic artificial
    (a unit column) always has a -1 slack entry in its row to pivot on.
    """
    rng = np.random.default_rng(43)
    phase1_runs = driven_out = 0
    for _ in range(600):
        objective, rows = random_lp(rng)
        sx = _Simplex(as_program(objective, rows))
        if sx.art_rows.size == 0:
            continue
        slack = sx.n + sx.art_rows
        art = sx.n + sx.m + np.arange(sx.art_rows.size)
        pivot = sx._pivot

        def checked_pivot(row, col):
            pivot(row, col)
            assert np.array_equal(sx.T[:, slack], -sx.T[:, art])

        sx._pivot = checked_pivot
        assert np.array_equal(sx.T[:, slack], -sx.T[:, art])
        assert sx.run_phase(sx.phase1_cost(), sx.ncols) == "optimal"
        phase1_runs += 1
        if sx.artificial_sum() <= 1e-7 * max(1.0, float(np.abs(sx.b).max())):
            driven_out += sum(j >= sx.n + sx.m for j in sx.basis)
            sx.drive_out_artificials()
            assert all(j < sx.n + sx.m for j in sx.basis) and sx.T.shape[0] == sx.m
        out = solve(objective, rows)
        if out.status == "optimal":
            assert out.dual is not None and out.dual.shape == (len(rows),)
    assert phase1_runs >= 200
    assert driven_out >= 50  # basic artificials at zero after phase 1 do occur


# ---------------------------------------------------------------------------
# the carried reduced-cost row against pricing from scratch every iteration


def pivot_path(monkeypatch, solve_call, run_phase):
    """Run solve_call with the given run_phase; return its result and every (row, col) pivot."""
    pivots = []
    pivot = _Simplex._pivot

    def recorded(sx, row, col):
        pivots.append((row, col))
        pivot(sx, row, col)

    with monkeypatch.context() as m:
        m.setattr(_Simplex, "_pivot", recorded)
        m.setattr(_Simplex, "run_phase", run_phase)
        return solve_call(), pivots


def assert_same_path(monkeypatch, solve_call):
    got, path = pivot_path(monkeypatch, solve_call, _Simplex.run_phase)
    want, oracle_path = pivot_path(monkeypatch, solve_call, priced_run_phase)
    assert path == oracle_path
    return got, want, path


def test_carried_pricing_pivots_like_pricing_from_scratch(monkeypatch):
    rng = np.random.default_rng(59)
    statuses, pivots = set(), 0
    for _ in range(300):
        objective, rows = random_lp(rng)
        got, want, path = assert_same_path(monkeypatch, lambda: solve(objective, rows))
        assert got.status == want.status
        if got.status == "optimal":
            assert np.array_equal(got.x, want.x) and got.value == want.value
            assert np.array_equal(got.dual, want.dual)
        statuses.add(got.status)
        pivots += len(path)
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert pivots >= 300


def test_carried_pricing_keeps_the_4x4_corner_path(monkeypatch):
    # plain 4x4 grid, both ways along one diagonal plus the other diagonal
    net = build_network(coded_grid(4, 4).nodes)
    triple = [Commodity(1, 16), Commodity(16, 1), Commodity(4, 13)]
    got, want, path = assert_same_path(monkeypatch, lambda: solve_mmf(net, triple, cap=1000))
    assert len(path) == 4529
    assert np.array_equal(got.flows, want.flows) and got.throughput == want.throughput
    assert got.schedule_weights == want.schedule_weights
    assert abs(got.throughput - 2 / 3) <= 1e-9


def test_a_drifted_carried_row_is_priced_again_before_stopping():
    # the carried row claims optimality at the start; the fresh row finds x to enter
    sx = _Simplex(LinearProgram([1.0], [[1.0]], [2.0]))
    reduced_costs = sx.reduced_costs
    calls = []

    def stale_first(cost, allowed):
        calls.append(allowed)
        row = reduced_costs(cost, allowed)
        return np.zeros_like(row) if len(calls) == 1 else row

    sx.reduced_costs = stale_first
    assert sx.run_phase(sx.phase2_cost(), sx.n + sx.m) == "optimal"
    assert len(calls) == 3  # the stale start, the re-price that pivots, the final check
    assert sx.basis == [0] and sx.solution().tolist() == [2.0]


def test_a_variable_ending_below_the_clamp_is_a_solver_fault():
    # x is basic in the only row; its value is set just under zero
    sx = _Simplex(LinearProgram([1.0], [[1.0]], [2.0]))
    sx._pivot(0, 0)
    sx.T[0, -1] = -1e-9  # round-off within 10 pivot tolerances is clamped
    assert sx.solution().tolist() == [0.0]
    sx.T[0, -1] = -1e-6
    with pytest.raises(SolverError, match="negative variable"):
        sx.solution()


# ---------------------------------------------------------------------------
# the tableau written straight from the program's rows


def test_the_simplex_holds_no_copy_of_the_rows_beyond_its_tableau(monkeypatch):
    """Building the tableau allocates it, its update buffer and little else.

    A stacked copy of the normalized rows, or a duplicate-key set kept
    alive next to the tableau, would each add about one more tableau.
    """

    class Captured(Exception):
        pass

    def capture(program, exact_check=False):
        programs.append(program)
        raise Captured

    programs = []
    every_set_priced(monkeypatch)  # all 2,861 sets: a 3.3 MB tableau, well past the slack
    monkeypatch.setattr(mmf_module, "solve_lp", capture)
    triple = [Commodity(1, 16), Commodity(16, 1), Commodity(4, 13)]
    with pytest.raises(Captured):
        solve_mmf(coded_grid(4, 4), triple, mode="coding", cap=10**4)
    (program,) = programs
    assert program.rows.shape == (91, 3005)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sx = _Simplex(program)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sx.m == 133
    assert peak <= 2 * sx.T.nbytes + 2**20
