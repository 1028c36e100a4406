"""Dense two-phase primal simplex with Bland's rule.

Maximizes c.x over {x >= 0 : A.x <= b}, where A is a dense matrix whose
rows an optional boolean vector may mark as equalities. The tableau is
written straight from A: an equality becomes a.x <= b followed by
-a.x <= -b, so the solver core only ever sees rows of the form a.x <= b,
and repeated rows are kept as given; the duals are folded back to one price
per row of A. Bland's rule keeps the pivoting cycle-free, repeats included,
and deterministic; identical inputs produce bit-identical outputs. Each
phase carries its reduced-cost row through the pivots and prices it from
scratch before it stops. The solver is meant for small dense problems and
fails loudly (SolverError) instead of limping through numerical trouble.

No tableau row is ever removed, so every optimal outcome carries a dual. An
artificial's column starts as the exact negation of its constraint's slack
column, and every pivot keeps that negation bitwise (IEEE rounding is
sign-symmetric), so a basic artificial, a unit column, always has the
slack's -1 entry in its row to pivot on.

An optional exact mode re-checks the returned basis in rational
arithmetic. Only the basic structural columns against the tight rows (rows
whose slack is nonbasic) are solved, with the transpose for the duals, by
sparse elimination over the nonzeros; then every row and reduced cost is
confirmed exactly. The cost grows with the basis, not with rows x columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SolverError, ValidationError

_PIVOT_EPS = 1e-9
_PIVOT_FLOOR = 1e-11


class LinearProgram:
    """maximize objective . x subject to rows . x <= bounds, all variables nonnegative.

    ``rows`` is an m x n matrix and ``bounds`` an m-vector; the rows that
    ``equal`` (an optional boolean m-vector) marks hold with equality.
    """

    def __init__(self, objective, rows, bounds, equal=None):
        self.objective = np.asarray(objective, dtype=float)
        if self.objective.ndim != 1:
            raise ValidationError("objective must be a vector")
        self.rows = np.asarray(rows, dtype=float)
        if self.rows.ndim != 2 or self.rows.shape[1] != self.objective.size:
            raise ValidationError(
                f"rows of shape {self.rows.shape} do not match {self.objective.size} variables"
            )
        m = self.rows.shape[0]
        self.bounds = np.asarray(bounds, dtype=float)
        self.equal = np.zeros(m, dtype=bool) if equal is None else np.asarray(equal, dtype=bool)
        if self.bounds.shape != (m,) or self.equal.shape != (m,):
            raise ValidationError(f"bounds and equal must have one entry per row ({m})")
        if not all(np.isfinite(v).all() for v in (self.objective, self.rows, self.bounds)):
            raise ValidationError("program has non-finite entries")

    @property
    def num_vars(self) -> int:
        return int(self.objective.size)


@dataclass(frozen=True, eq=False)
class LpOutcome:
    """Solver result: status is "optimal", "infeasible", or "unbounded".

    ``x``, ``value`` and ``dual`` are set exactly for optimal outcomes;
    ``dual`` has one price per program row, free in sign on equalities and
    nonnegative elsewhere. ``exact_value`` carries the rational objective
    when the exact re-check ran.
    """

    status: str
    value: float | None = None
    x: np.ndarray | None = None
    dual: np.ndarray | None = None
    exact_value: Fraction | None = None


class _Simplex:
    """Tableau state for one solve.

    Normalized row r is ``sign[r] * program.rows[source[r]] . x <= b[r]``:
    every row in order, an equality followed by its negation.
    """

    def __init__(self, program: LinearProgram):
        A, bounds = program.rows, program.bounds
        self.n = n = program.num_vars
        self.objective = program.objective
        self.num_rows = A.shape[0]
        self.source = np.repeat(np.arange(self.num_rows), 1 + program.equal)
        # the second of two entries from one equality is its negation
        self.sign = np.where(np.diff(self.source, prepend=-1) == 0, -1.0, 1.0)
        self.b = b = bounds[self.source] * self.sign
        self.m = m = self.source.size
        # rows with negative bounds start infeasible and get an artificial
        sigma = np.where(b < 0, -1.0, 1.0)
        self.art_rows = np.flatnonzero(b < 0)
        n_art = int(self.art_rows.size)
        self.ncols = n + m + n_art
        T = np.zeros((m, self.ncols + 1))
        for r, (i, s) in enumerate(zip(self.source.tolist(), (self.sign * sigma).tolist())):
            np.multiply(A[i], s, out=T[r, :n])
        T[np.arange(m), n + np.arange(m)] = sigma
        T[self.art_rows, n + m + np.arange(n_art)] = 1.0
        T[:, -1] = b * sigma
        self.T = T
        self._update = np.empty_like(T)  # rank-1 update buffer, reused by every pivot
        basis = np.arange(n, n + m)
        basis[self.art_rows] = n + m + np.arange(n_art)
        self.basis = basis.tolist()

    def phase1_cost(self) -> np.ndarray:
        cost = np.zeros(self.ncols)
        cost[self.n + self.m :] = -1.0
        return cost

    def phase2_cost(self) -> np.ndarray:
        cost = np.zeros(self.ncols)
        cost[: self.n] = self.objective
        return cost

    def artificial_sum(self) -> float:
        first_art = self.n + self.m
        return float(
            sum(self.T[i, -1] for i in range(self.m) if self.basis[i] >= first_art)
        )

    def _pivot(self, row: int, col: int) -> None:
        piv = self.T[row, col]
        if abs(piv) < _PIVOT_FLOOR:
            raise SolverError("pivot magnitude below the tolerance floor")
        self.T[row] /= piv
        colvals = self.T[:, col].copy()
        colvals[row] = 0.0
        np.dot(colvals[:, None], self.T[row][None, :], out=self._update)
        self.T -= self._update
        self.T[:, col] = 0.0
        self.T[row, col] = 1.0
        self.basis[row] = col

    def reduced_costs(self, cost: np.ndarray, allowed: int) -> np.ndarray:
        basis = np.asarray(self.basis, dtype=np.intp)
        return cost[:allowed] - cost[basis] @ self.T[:, :allowed]

    def run_phase(self, cost: np.ndarray, allowed: int) -> str:
        limit = 5000 + 200 * (self.m + self.ncols)
        reduced = self.reduced_costs(cost, allowed)  # carried through the pivots below
        for _ in range(limit):
            improving = np.flatnonzero(reduced > _PIVOT_EPS)
            if improving.size == 0:  # stop only if a row priced from scratch agrees
                reduced = self.reduced_costs(cost, allowed)
                improving = np.flatnonzero(reduced > _PIVOT_EPS)
                if improving.size == 0:
                    return "optimal"
            enter = int(improving[0])  # Bland: lowest eligible variable index
            col = self.T[:, enter]
            rows = np.flatnonzero(col > _PIVOT_EPS)
            if rows.size == 0:
                return "unbounded"
            ratios = np.maximum(self.T[rows, -1], 0.0) / col[rows]
            best = ratios.min()
            tied = rows[ratios <= best * (1 + 1e-12) + 1e-12]
            leave = int(min(tied, key=lambda i: self.basis[i]))  # Bland again
            self._pivot(leave, enter)
            reduced -= reduced[enter] * self.T[leave, :allowed]  # exactly 0 at enter
        raise SolverError("simplex iteration limit exceeded")

    def drive_out_artificials(self) -> None:
        """After a feasible phase 1, pivot each basic artificial out of the basis.

        It sits at value zero and goes to the first usable column; the
        slack of its own constraint, the negation of its unit column, is one.
        """
        first_art = self.n + self.m
        for i in range(self.m):
            if self.basis[i] >= first_art:
                usable = np.flatnonzero(np.abs(self.T[i, :first_art]) > _PIVOT_EPS)
                self._pivot(i, int(usable[0]))

    def solution(self) -> np.ndarray:
        xfull = np.zeros(self.ncols)
        xfull[np.asarray(self.basis, dtype=np.intp)] = self.T[:, -1]
        x = xfull[: self.n].copy()
        if np.any(x <= -10 * _PIVOT_EPS):
            raise SolverError("simplex ended with a negative variable")
        x[x < 0] = 0.0
        return x

    def dual(self, cost: np.ndarray) -> np.ndarray:
        """One price per program row: y+ - y- for a split equality."""
        y = np.zeros(self.num_rows)
        np.add.at(y, self.source, -self.sign * self.reduced_costs(cost, self.n + self.m)[self.n :])
        return y


def _nonzeros(block: np.ndarray):
    """(row, column, value) of each nonzero entry, as Python ints and floats."""
    r, c = np.nonzero(block)
    return zip(r.tolist(), c.tolist(), block[r, c].tolist())


def _sparse_solve(rows: list[dict[int, Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve the square system rows . z = rhs exactly; None when it is singular.

    Rows map columns to nonzero coefficients. Each column in turn pivots on
    the shortest remaining row holding it; back-substitution finishes.
    """
    rows, rhs = [dict(row) for row in rows], list(rhs)
    free, order = set(range(len(rows))), []
    for col in range(len(rows)):
        holders = [i for i in free if col in rows[i]]
        if not holders:
            return None
        piv = min(holders, key=lambda i: (len(rows[i]), i))
        free.remove(piv)
        order.append((col, piv))
        for i in holders:
            if i != piv:
                row, f = rows[i], rows[i][col] / rows[piv][col]
                for j, v in rows[piv].items():
                    row[j] = row.get(j, 0) - f * v
                    if not row[j]:
                        del row[j]
                rhs[i] -= f * rhs[piv]
    z = [Fraction(0)] * len(rows)
    for col, piv in reversed(order):
        rest = sum(v * z[j] for j, v in rows[piv].items() if j != col)
        z[col] = (rhs[piv] - rest) / rows[piv][col]
    return z


def _exact_certificate(
    objective: np.ndarray, A: np.ndarray, b: np.ndarray, basis: list[int]
) -> Fraction:
    """Re-check the final basis with rational arithmetic; return the exact objective.

    Rows whose slack is basic are set aside (dual 0, slack b_r - a_r.x), so
    only the basic structural columns against the tight rows are solved;
    then every basic value, slacks too, and every reduced cost is confirmed
    exactly. Any failure raises SolverError rather than a doubtful value.
    """
    n, m = int(objective.size), A.shape[0]
    structural = [j for j in basis if j < n]
    slack_rows = [j - n for j in basis if j >= n]
    tight = sorted(set(range(m)).difference(slack_rows))
    # a repeated slack leaves more tight rows than structural columns
    if len(tight) != len(structural):
        raise SolverError("exact verification failed: singular basis")
    rows, cols = [{} for _ in tight], [{} for _ in structural]
    for q, p, v in _nonzeros(A[np.ix_(tight, structural)]):
        rows[q][p] = cols[p][q] = Fraction(v)
    bF = [Fraction(v) for v in b.tolist()]
    z = _sparse_solve(rows, [bF[r] for r in tight])
    if z is None:
        raise SolverError("exact verification failed: singular basis")
    support = [(j, v) for j, v in zip(structural, z) if v]
    lhs = [Fraction(0)] * m
    for r, k, v in _nonzeros(A[:, [j for j, _ in support]]):
        lhs[r] += Fraction(v) * support[k][1]
    if any(v < 0 for v in z) or any(lhs[r] > bF[r] for r in slack_rows):
        raise SolverError("exact verification failed: negative basic variable")
    cF = [Fraction(v) for v in objective.tolist()]
    w = _sparse_solve(cols, [cF[j] for j in structural])
    if w is None:
        raise SolverError("exact verification failed: singular basis transpose")
    priced = [q for q, v in enumerate(w) if v]
    reduced = cF[:]
    for k, j, v in _nonzeros(A[[tight[q] for q in priced]]):
        reduced[j] -= w[priced[k]] * Fraction(v)
    # the slack of tight row q has reduced cost -w_q; other slacks have 0
    if any(v < 0 for v in w) or any(v > 0 for v in reduced):
        raise SolverError("exact verification failed: positive reduced cost")
    return sum((cF[j] * v for j, v in support), Fraction(0))


def solve_lp(p: LinearProgram, exact_check: bool = False) -> LpOutcome:
    """Solve a linear program; see the module docstring for conventions."""
    sx = _Simplex(p)
    if sx.art_rows.size:
        status = sx.run_phase(sx.phase1_cost(), sx.ncols)
        if status != "optimal":
            raise SolverError(f"phase 1 ended {status}")
        if sx.artificial_sum() > 1e-7 * max(1.0, float(np.abs(sx.b).max())):
            return LpOutcome("infeasible")
        sx.drive_out_artificials()

    cost2 = sx.phase2_cost()
    status = sx.run_phase(cost2, sx.n + sx.m)
    if status == "unbounded":
        return LpOutcome("unbounded")
    x = sx.solution()
    value = float(p.objective @ x)
    dual = sx.dual(cost2)
    exact = None
    if exact_check:
        A = p.rows[sx.source] * sx.sign[:, None]
        exact = _exact_certificate(p.objective, A, sx.b, sx.basis)
    return LpOutcome("optimal", value, x, dual, exact)
