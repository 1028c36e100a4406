"""Shared fixtures, random generators, and brute-force oracles for the tests.

The oracles here are deliberately independent of the package internals:
maximal independent sets come from filtering every vertex subset or from
a frozenset Bron-Kerbosch, catalogs and the inductive schedulable number
from set loops, distances from one ``math.hypot`` call per ordered node
pair, links from one ``distance`` call per ordered pair of distinct nodes,
generated hyperarcs from ``itertools.combinations`` over those links,
sub-link rows from per-head link lookups, padded the old way,
conflict graphs from testing every vertex pair with the pairwise
protocol-model predicates below, vertex conflict matrices from a plain
numpy gather of a graph's relation or, for a network, from the link test
in floats, greedy schedules from set-based
loops, linear programs are solved by enumerating basis vertices with exact
rational arithmetic, a simplex basis is certified by dense rational
Gauss-Jordan over every row, simplex phases are priced from scratch
before every pivot, and JSON reports are rendered by the standard
library's encoder.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from multiflow import (
    Commodity,
    ConflictGraph,
    FractionalSchedule,
    Network,
    Node,
    SolverError,
    ValidationError,
    build_conflict_graph,
    build_network,
)
from multiflow.cfs import _scan
from multiflow.cli import _round9
from multiflow.conflict import compat_masks
from multiflow.lp import LinearProgram
from multiflow.model import DEFAULT_MAX_CODING_DEGREE, Hyperarc, Link

# ---------------------------------------------------------------------------
# canonical two-way relay fixtures

BOUNDS_EPS = 1e-9
VALUE_EPS = 1e-6


def relay_nodes() -> list[Node]:
    """Two endpoints at distance 2 and a relay in the middle, unit radii."""
    return [
        Node(1, 0.0, 0.0, 1.0, 1.0),
        Node(2, 2.0, 0.0, 1.0, 1.0),
        Node(3, 1.0, 0.0, 1.0, 1.0),
    ]


def relay_plain() -> Network:
    return build_network(relay_nodes())


def relay_coded() -> Network:
    return build_network(relay_nodes(), hyperarcs=[(3, (1, 2))])


def relay_commodities() -> tuple[Commodity, Commodity]:
    return (Commodity(1, 2), Commodity(2, 1))


def relay_data(**fields) -> dict:
    """The relay's nodes as instance-file data, plus the given fields."""
    nodes = [
        {"id": nd.id, "x": nd.x, "y": nd.y, "r": nd.comm_radius, "rho": nd.interf_radius}
        for nd in relay_nodes()
    ]
    return {"nodes": nodes, **fields}


def grid_instance(width: int, height: int, coded: bool) -> dict:
    """Unit-spaced grid with r = 1 and rho = 1.5, as instance data; coded grids broadcast to pairs."""
    nodes = [
        {"id": y * width + x + 1, "x": float(x), "y": float(y), "r": 1.0, "rho": 1.5}
        for y in range(height)
        for x in range(width)
    ]
    inst: dict = {"nodes": nodes}
    if coded:
        inst["coding_nodes"] = [nd["id"] for nd in nodes]
        inst["max_coding_degree"] = 2
    return inst


def coded_grid(width: int, height: int, max_coding_degree: int = 2) -> Network:
    """Unit-spaced grid, r = 1 and rho = 1.5, every node coding up to the given degree."""
    nodes = [
        Node(y * width + x + 1, float(x), float(y), 1.0, 1.5)
        for y in range(height)
        for x in range(width)
    ]
    return build_network(
        nodes, coding_nodes=range(1, width * height + 1), max_coding_degree=max_coding_degree
    )


# ---------------------------------------------------------------------------
# synthetic conflict graphs


def sublink_indices(network: Network, arc: Hyperarc) -> frozenset[int]:
    """Dict-lookup reference for one row of ``Network.sublink_index`` (1-based)."""
    links = [network.find_link(arc.tail, j) for j in arc.heads]
    if None in links:
        raise ValidationError(
            f"hyperarc ({arc.tail}, {sorted(arc.heads)}) does not belong to this network"
        )
    return frozenset(lk.index for lk in links)


def padded_sublink_index(sublinks, link_count: int) -> np.ndarray:
    """0-based sub-links, one row per vertex, padded with ``link_count`` to one column at least."""
    index = np.full((len(sublinks), max([1, *map(len, sublinks)])), link_count)
    for v, s in enumerate(sublinks):
        index[v, : len(s)] = sorted(a - 1 for a in s)
    return index


def sublink_sets(cg: ConflictGraph) -> tuple[frozenset[int], ...]:
    """The 1-based link indices each vertex delivers, read off ``sublink_index``."""
    return tuple(
        frozenset((row[row < cg.link_count] + 1).tolist()) for row in cg.sublink_index
    )


def make_conflict_graph(n: int, edges, sublinks=None, link_count=None) -> ConflictGraph:
    """Build a conflict graph directly from link-level ``edges``, without any geometry behind it.

    Without ``sublinks`` vertex v delivers link v alone, so ``edges`` relate vertices too.
    """
    if sublinks is None:
        sublinks = tuple(frozenset({v}) for v in range(1, n + 1))
        if link_count is None:
            link_count = n
    else:
        sublinks = tuple(frozenset(s) for s in sublinks)
        if link_count is None:
            link_count = max((max(s) for s in sublinks if s), default=0)
    index = padded_sublink_index(sublinks, link_count)
    ends = np.array(list(edges), dtype=np.intp).reshape(-1, 2) - 1
    if not ((0 <= ends) & (ends < link_count)).all():
        raise ValueError(f"edge ends must lie in 1..{link_count}")
    # the link relation: symmetric, a true diagonal, then a false padding row and column
    relation = np.zeros((link_count + 1, link_count + 1), dtype=bool)
    relation[ends[:, 0], ends[:, 1]] = relation[ends[:, 1], ends[:, 0]] = True
    relation[np.arange(link_count), np.arange(link_count)] = True
    relation.flags.writeable = False
    return ConflictGraph("hyperarc", sublink_index=index, relation=relation)


def relation_matrix(cg: ConflictGraph, vertices=None) -> np.ndarray:
    """The vertex conflict matrix, ``relation`` read at every pair of sub-links, diagonal false.

    ``vertices`` picks and orders the rows and columns (0-based); all of them by default.
    """
    rows = cg.sublink_index if vertices is None else cg.sublink_index[vertices]
    h, w = rows.shape
    matrix = cg.relation[rows.reshape(h, w, 1, 1), rows.reshape(1, 1, h, w)].any(axis=(1, 3))
    np.fill_diagonal(matrix, False)
    return matrix


def is_independent(cg: ConflictGraph, vertices) -> bool:
    """No two of the 1-based ``vertices`` conflict; a repeated id is the same vertex."""
    return not relation_matrix(cg, np.array(sorted(set(vertices)), dtype=np.intp) - 1).any()


def neighbor_sets(cg: ConflictGraph) -> tuple[frozenset[int], ...]:
    """The 1-based neighbors of each vertex, read off ``relation_matrix``."""
    return tuple(frozenset((np.flatnonzero(row) + 1).tolist()) for row in relation_matrix(cg))


def closed_sets(closed: np.ndarray) -> tuple[frozenset[int], ...]:
    """The 1-based closed neighborhood of each link, read off ``closed``."""
    return tuple(frozenset((np.flatnonzero(row) + 1).tolist()) for row in closed)


def node_map(network: Network) -> dict[int, Node]:
    return {nd.id: nd for nd in network.nodes}


def _endpoints_conflict(i: int, j: int, i2: int, j2: int, nodes: Mapping[int, Node]) -> bool:
    # transmitter of one within interference range of the other's receiver
    return (
        distance(nodes[i2], nodes[j]) <= nodes[i2].interf_radius
        or distance(nodes[i], nodes[j2]) <= nodes[i].interf_radius
    )


def links_conflict(l: Link, l2: Link, nodes: Mapping[int, Node]) -> bool:
    """Protocol-model interference test for two distinct links."""
    return _endpoints_conflict(l.tail, l.head, l2.tail, l2.head, nodes)


def hyperarcs_conflict(h: Hyperarc, h2: Hyperarc, nodes: Mapping[int, Node]) -> bool:
    """Existential sub-link test: true when some sub-link pair interferes."""
    return any(
        _endpoints_conflict(h.tail, j, h2.tail, j2, nodes) for j in h.heads for j2 in h2.heads
    )


def pairwise_adjacency(network: Network, level: str) -> tuple[frozenset[int], ...]:
    """Neighbor sets of the conflict graph, by testing every vertex pair."""
    if level == "link":
        items, conflict = network.links, links_conflict
    else:
        items, conflict = network.hyperarcs, hyperarcs_conflict
    nodes = node_map(network)
    adj: list[set[int]] = [set() for _ in items]
    for p, q in itertools.combinations(range(len(items)), 2):
        if conflict(items[p], items[q], nodes):
            adj[p].add(q + 1)
            adj[q].add(p + 1)
    return tuple(frozenset(a) for a in adj)


def distance(u: Node, v: Node) -> float:
    """Euclidean distance between two nodes, one ``math.hypot`` call."""
    return math.hypot(u.x - v.x, u.y - v.y)


def loop_distances(nodes) -> np.ndarray:
    """Per-pair reference for ``Network.distances``: nodes in id order."""
    ordered = sorted(nodes, key=lambda nd: nd.id)
    rows = [[distance(u, v) for v in ordered] for u in ordered]
    return np.array(rows, dtype=float).reshape(len(ordered), len(ordered))


def loop_links(nodes) -> list[tuple[int, int]]:
    """Per-pair reference for ``Network.links``: (tail, head) in id order.

    One ``distance`` call per ordered pair of distinct nodes; a link exists
    when 0 < d <= the tail's communication radius.
    """
    ordered = sorted(nodes, key=lambda nd: nd.id)
    return [
        (u.id, v.id)
        for u, v in itertools.permutations(ordered, 2)
        if 0 < distance(u, v) <= u.comm_radius
    ]


def generate_hyperarcs(
    network: Network,
    coding_nodes,
    max_coding_degree: int = DEFAULT_MAX_CODING_DEGREE,
) -> tuple[Hyperarc, ...]:
    """Reference for the hyperarcs ``build_network`` generates for coding nodes.

    Every weight-1 hyperarc of ``loop_links`` plus, for each coding node i,
    one hyperarc (i, J) per subset J of i's out-neighbors with
    2 <= |J| <= max_coding_degree, sorted by (tail, weight, sorted heads).
    """
    links = loop_links(network.nodes)
    outs = {tail: sorted(h for t, h in links if t == tail) for tail in set(coding_nodes)}
    coded = sorted(
        (tail, size, combo)
        for tail, heads in outs.items()
        for size in range(2, min(max_coding_degree, len(heads)) + 1)
        for combo in itertools.combinations(heads, size)
    )
    arcs = [Hyperarc(t, frozenset((h,)), k) for k, (t, h) in enumerate(links, 1)]
    arcs += [Hyperarc(t, frozenset(c), k) for k, (t, _, c) in enumerate(coded, len(arcs) + 1)]
    return tuple(arcs)


def coding_first_mwis(candidates, omega, gh: ConflictGraph) -> frozenset[int]:
    """One coding-first scan of ``multiflow.cfs`` over a candidate set.

    Scans the ordering, keeps candidates, and adds every vertex not in
    conflict with one already chosen, as each ``cfs_schedule`` round does
    on its scan-order bitmasks (bit k for the k-th vertex of ``omega``).
    """
    remaining = set(candidates)
    if not remaining:
        raise ValidationError("empty candidate set")
    order = np.array(omega, dtype=np.intp) - 1
    compat = compat_masks(gh, order)
    free = sum(1 << k for k, v in enumerate(omega) if v in remaining)
    return frozenset((order[_scan(free, compat)] + 1).tolist())


def loop_coding_first_mwis(candidates, omega, gh: ConflictGraph, adjacency=None) -> frozenset[int]:
    """Set-based reference for ``coding_first_mwis``.

    ``adjacency`` defaults to ``neighbor_sets(gh)``; callers that scan one
    graph many times pass it in once.
    """
    remaining = set(candidates)
    if not remaining:
        raise ValidationError("empty candidate set")
    adjacency = neighbor_sets(gh) if adjacency is None else adjacency
    chosen: list[int] = []
    taken: set[int] = set()
    for v in omega:
        if v in remaining and not (adjacency[v - 1] & taken):
            chosen.append(v)
            taken.add(v)
    return frozenset(chosen)


def loop_cfs_schedule(network: Network, gh: ConflictGraph, omega, demand) -> FractionalSchedule:
    """Per-vertex loop reference for ``multiflow.cfs_schedule`` (a valid ordering and demand)."""
    residual = np.asarray(demand, dtype=float).copy()
    # 1e-12 in the units of the largest demand while that demand is under 1
    eps = 1e-12 * min(1.0, max(residual.tolist(), default=0.0))
    surviving = set(range(1, gh.vertex_count + 1))
    adjacency = neighbor_sets(gh)
    sublinks = sublink_sets(gh)
    entries: list[tuple[frozenset[int], float]] = []
    while surviving:
        # a vertex with no link has nothing left to serve, so it leaves with the first round
        assigned = {
            v: min((residual[a - 1] for a in sublinks[v - 1]), default=0.0) for v in surviving
        }
        surviving = {v for v in surviving if assigned[v] > eps}
        if not surviving:
            break
        picked = loop_coding_first_mwis(surviving, omega, gh, adjacency)
        lam = min(assigned[v] for v in picked)
        entries.append((picked, float(lam)))
        for v in picked:
            for a in sublinks[v - 1]:
                left = residual[a - 1] - lam
                residual[a - 1] = left if left > eps else 0.0
    return FractionalSchedule(tuple(entries))


def loop_capacity(schedule: FractionalSchedule, network: Network) -> np.ndarray:
    """Union-loop reference for ``FractionalSchedule.capacity`` (in-range vertices only)."""
    rates = np.zeros(network.link_count)
    for vertices, lam in schedule.entries:
        links: frozenset[int] = frozenset()
        for v in sorted(vertices):
            links |= sublink_indices(network, network.hyperarcs[v - 1])
        rates[[a - 1 for a in links]] += lam
    return rates


def loop_maximal_independent_sets(cg: ConflictGraph) -> tuple[frozenset[int], ...]:
    """Frozenset Bron-Kerbosch with pivot on the complement graph, sorted by vertex tuple.

    Reference for the bitmask enumeration in ``multiflow.conflict``: the
    same pivot rule, with every candidate and excluded set a Python set.
    """
    n = cg.vertex_count
    if n == 0:
        return ()
    allv = frozenset(range(1, n + 1))
    nonadj = tuple(allv - nb - {v} for v, nb in enumerate(neighbor_sets(cg), 1))
    found: list[frozenset[int]] = []

    def expand(chosen: tuple[int, ...], cand: set[int], excl: set[int]) -> None:
        if not cand and not excl:
            found.append(frozenset(chosen))
            return
        pivot = max(sorted(cand | excl), key=lambda u: len(cand & nonadj[u - 1]))
        for v in sorted(cand - nonadj[pivot - 1]):
            expand(chosen + (v,), cand & nonadj[v - 1], excl & nonadj[v - 1])
            cand = cand - {v}
            excl = excl | {v}

    expand((), set(allv), set())
    found.sort(key=lambda s: tuple(sorted(s)))
    return tuple(found)


@dataclass(frozen=True, eq=False)
class LoopCatalog:
    """A catalog as the set loops build it: both set tuples stored, each matrix filled from one."""

    hyperarc_sets: tuple[frozenset[int], ...]
    sublink_sets: tuple[frozenset[int], ...]
    member: np.ndarray
    incidence: np.ndarray
    link_count: int

    def __len__(self) -> int:
        return len(self.hyperarc_sets)


def loop_schedulable_sets(cg: ConflictGraph) -> LoopCatalog:
    """Set-loop reference for ``multiflow.enumerate_schedulable_sets`` (no cap)."""
    sets = loop_maximal_independent_sets(cg)
    sublinks = sublink_sets(cg)
    unions = tuple(frozenset().union(*(sublinks[v - 1] for v in s)) for s in sets)
    member = np.zeros((len(sets), cg.vertex_count), dtype=bool)
    incidence = np.zeros((len(sets), cg.link_count), dtype=bool)
    for k, (s, ls) in enumerate(zip(sets, unions)):
        for v in s:
            member[k, v - 1] = True
        for a in ls:
            incidence[k, a - 1] = True
    return LoopCatalog(sets, unions, member, incidence, cg.link_count)


def loop_inductive_schedulable_number(catalog, neighborhoods) -> int:
    """Set-loop reference for ``inductive_schedulable_number`` (nonempty inputs)."""
    closed = closed_sets(neighborhoods)
    return max(len(ls & nb) for ls in catalog.sublink_sets for nb in closed)


def brute_force_max_independent_sets(cg: ConflictGraph) -> set[frozenset[int]]:
    """All maximal independent sets, by filtering every subset of vertices."""
    verts = list(range(1, cg.vertex_count + 1))
    adjacency = neighbor_sets(cg)
    found = set()
    for mask in range(1 << len(verts)):
        subset = [verts[i] for i in range(len(verts)) if mask >> i & 1]
        if any(v in adjacency[u - 1] for u, v in itertools.combinations(subset, 2)):
            continue
        chosen = set(subset)
        extendable = any(
            v not in chosen and not (adjacency[v - 1] & chosen) for v in verts
        )
        if not extendable:
            found.add(frozenset(chosen))
    return found


def ix_compat_masks(cg: ConflictGraph, order) -> list[int]:
    """Reference for ``conflict.compat_masks``: one ``np.ix_`` block, bits set one at a time."""
    free = np.logical_not(relation_matrix(cg)[np.ix_(order, order)])
    return [sum(1 << j for j in range(len(order)) if j != k and free[k, j]) for k in range(len(order))]


def eager_conflict_matrix(network: Network, level: str) -> np.ndarray:
    """Reference vertex conflict matrix of a network: the link test in floats, then two gathers."""
    n = network.link_count
    index = network.sublink_index[: n if level == "link" else None]
    tails, heads = network.link_ends
    rho = np.array([nd.interf_radius for nd in network.nodes])[tails]
    hit = np.zeros((n + 1, n + 1), dtype=bool)
    reach = np.take(np.take(network.distances, tails, axis=0), heads, axis=1)
    np.less_equal(reach, rho[:, None], out=hit[:n, :n])
    hit |= hit.T

    def gather_any(rows, idx):
        return np.logical_or.reduce([np.take(rows, column, axis=0) for column in idx.T])

    matrix = gather_any(np.ascontiguousarray(gather_any(hit, index).T), index)
    np.fill_diagonal(matrix, False)
    return matrix


def row_masks(rows: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as a Python int, bit k set where column k is."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def permuted_compat_masks(cg: ConflictGraph, order) -> list[int]:
    """Reference for ``conflict.compat_masks``: ``relation_matrix`` blocks in scan order."""
    compat: list[int] = []
    matrix = relation_matrix(cg)
    for s in range(0, len(order), 1024):
        block = np.take(np.take(matrix, order[s : s + 1024], axis=0), order, axis=1)
        np.logical_not(block, out=block)
        block[np.arange(len(block)), np.arange(s, s + len(block))] = False
        compat += row_masks(block)
    return compat


def sum_length_bound(demand, closed: np.ndarray) -> float:
    """Reference for ``cfs_length_bound``: a Python ``sum`` over each closed row, ascending."""
    d = np.asarray(demand, dtype=float)
    return max((float(sum(d[row])) for row in closed), default=0.0)


def _clean(obj):
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_clean(v) for v in obj]
    if isinstance(obj, float):
        return _round9(obj)
    return obj


def json_render(report: dict) -> str:
    """Reference for ``multiflow.cli.render_json``: the standard encoder on rounded floats."""
    return json.dumps(_clean(report), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# exact brute-force linear programming oracle


def _exact_gauss(matrix, rhs):
    """Solve a square rational system; None when the matrix is singular."""
    k = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][k] for r in range(k)]


def _satisfies(x, rows) -> bool:
    for coeffs, rel, b in rows:
        lhs = sum(a * v for a, v in zip(coeffs, x))
        if rel == "<=" and lhs > b:
            return False
        if rel == ">=" and lhs < b:
            return False
        if rel == "=" and lhs != b:
            return False
    return True


def brute_force_lp(objective, rows):
    """Maximize c.x over the rows plus x >= 0 by exact vertex enumeration.

    Data must be integers (or exact fractions). Returns (status, value)
    with a Fraction value for optimal outcomes. The feasible region lies
    in the nonnegative orthant, so it is pointed: when nonempty it has a
    vertex, and enumeration over all n-subsets of constraint and axis
    planes visits every vertex. Unboundedness is a feasible recession
    direction with positive objective, found the same way on the
    normalized recession polytope.
    """
    n = len(objective)
    c = [Fraction(v) for v in objective]
    frows = [([Fraction(v) for v in coeffs], rel, Fraction(b)) for coeffs, rel, b in rows]
    axis = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    planes = [(coeffs, b) for coeffs, _, b in frows] + [(a, Fraction(0)) for a in axis]

    best = None
    for combo in itertools.combinations(planes, n):
        x = _exact_gauss([p[0] for p in combo], [p[1] for p in combo])
        if x is None or any(v < 0 for v in x) or not _satisfies(x, frows):
            continue
        value = sum(cv * xv for cv, xv in zip(c, x))
        if best is None or value > best:
            best = value
    if best is None:
        return "infeasible", None

    recession = [(coeffs, rel, Fraction(0)) for coeffs, rel, _ in frows]
    rec_planes = [(coeffs, Fraction(0)) for coeffs, _, _ in recession] + [
        (a, Fraction(0)) for a in axis
    ]
    ones = [Fraction(1)] * n
    for combo in itertools.combinations(rec_planes, n - 1):
        mat = [p[0] for p in combo] + [ones]
        rhs = [p[1] for p in combo] + [Fraction(1)]
        d = _exact_gauss(mat, rhs)
        if d is None or any(v < 0 for v in d) or not _satisfies(d, recession):
            continue
        if sum(cv * dv for cv, dv in zip(c, d)) > 0:
            return "unbounded", None
    return "optimal", best


def dense_certificate(objective, A, b, basis) -> Fraction:
    """The exact basis re-check as dense Gauss-Jordan over every row.

    Reference for ``multiflow.lp._exact_certificate``: it converts all of
    ``A`` to Fractions, solves the full basis system and its transpose,
    and prices every structural and slack column. It raises SolverError
    with the same messages.
    """
    n = int(objective.size)
    m = A.shape[0]
    cF = [Fraction(float(v)) for v in objective]
    AF = [[Fraction(float(v)) for v in row] for row in A]
    bF = [Fraction(float(v)) for v in b]

    def column(j: int) -> list[Fraction]:
        if j < n:
            return [AF[i][j] for i in range(m)]
        return [Fraction(1) if r == j - n else Fraction(0) for r in range(m)]

    cols = [column(j) for j in basis]
    Bmat = [[cols[c][r] for c in range(m)] for r in range(m)]
    z = _exact_gauss(Bmat, bF)
    if z is None:
        raise SolverError("exact verification failed: singular basis")
    if any(v < 0 for v in z):
        raise SolverError("exact verification failed: negative basic variable")
    cB = [cF[j] if j < n else Fraction(0) for j in basis]
    Bt = [[Bmat[r][c] for r in range(m)] for c in range(m)]
    w = _exact_gauss(Bt, cB)
    if w is None:
        raise SolverError("exact verification failed: singular basis transpose")
    for j in range(n + m):
        cj = cF[j] if j < n else Fraction(0)
        col = column(j)
        r = cj - sum(w[i] * col[i] for i in range(m))
        if r > 0:
            raise SolverError("exact verification failed: positive reduced cost")
    return sum(cB[i] * z[i] for i in range(m))


def priced_run_phase(sx, cost: np.ndarray, allowed: int) -> str:
    """Reference for ``_Simplex.run_phase`` that prices every iteration from scratch.

    The reduced-cost row is ``cost[basis] @ T`` before each pivot instead of
    a row carried through the pivots; entering, leaving and the iteration
    limit follow the same Bland rules, and every pivot goes through
    ``sx._pivot``.
    """
    for _ in range(5000 + 200 * (sx.m + sx.ncols)):
        basis = np.asarray(sx.basis, dtype=np.intp)
        reduced = cost[:allowed] - cost[basis] @ sx.T[:, :allowed]
        improving = np.flatnonzero(reduced > 1e-9)
        if improving.size == 0:
            return "optimal"
        enter = int(improving[0])
        col = sx.T[:, enter]
        rows = np.flatnonzero(col > 1e-9)
        if rows.size == 0:
            return "unbounded"
        ratios = np.maximum(sx.T[rows, -1], 0.0) / col[rows]
        best = ratios.min()
        tied = rows[ratios <= best * (1 + 1e-12) + 1e-12]
        sx._pivot(int(min(tied, key=lambda i: sx.basis[i])), enter)
    raise SolverError("simplex iteration limit exceeded")


def as_program(objective, rows) -> LinearProgram:
    """The array program of (coefficients, relation, bound) rows.

    A ">=" row is negated into a "<=" row and an "=" row is flagged in
    ``equal``; the oracles above read the tuples themselves.
    """
    assert all(rel in ("<=", "=", ">=") for _, rel, _ in rows)
    geq = np.array([rel == ">=" for _, rel, _ in rows], dtype=bool)
    A = np.array([coeffs for coeffs, _, _ in rows], dtype=float).reshape(len(rows), len(objective))
    b = np.array([bound for _, _, bound in rows], dtype=float)
    equal = [rel == "=" for _, rel, _ in rows]
    return LinearProgram(objective, np.where(geq[:, None], -A, A), np.where(geq, -b, b), equal)


def random_lp(rng):
    """Small random integer LP for comparison against the oracle."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 6))
    objective = [int(rng.integers(-5, 6)) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [int(rng.integers(-4, 5)) for _ in range(n)]
        rel = ("<=", "<=", "<=", ">=", "=")[int(rng.integers(0, 5))]
        rows.append((coeffs, rel, int(rng.integers(-5, 9))))
    return objective, rows


# ---------------------------------------------------------------------------
# random instances


def random_graph(rng, min_n: int = 1, max_n: int = 10) -> ConflictGraph:
    n = int(rng.integers(min_n, max_n + 1))
    p = float(rng.uniform(0.1, 0.9))
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < p
    ]
    return make_conflict_graph(n, edges)


def random_network(
    rng,
    min_nodes: int = 3,
    max_nodes: int = 8,
    allow_coding: bool = True,
    require_conflict: bool = False,
) -> Network:
    """Random geometric network with a handful of links.

    Draws nodes in a 3 by 3 box with varied radii, keeps instances with 1
    to 16 links, and optionally attaches one random broadcast hyperarc to
    up to two nodes of out-degree at least two. ``require_conflict``
    rejects networks whose link conflict graph has no edge at all.
    """
    for _ in range(400):
        count = int(rng.integers(min_nodes, max_nodes + 1))
        nodes = []
        for i in range(count):
            r = float(rng.uniform(0.7, 1.6))
            nodes.append(
                Node(
                    i + 1,
                    float(rng.uniform(0.0, 3.0)),
                    float(rng.uniform(0.0, 3.0)),
                    r,
                    r * float(rng.uniform(1.0, 1.4)),
                )
            )
        net = build_network(nodes)
        if not 1 <= net.link_count <= 16:
            continue
        if allow_coding and rng.random() < 0.75:
            heads = {nd.id: [lk.head for lk in net.links if lk.tail == nd.id] for nd in net.nodes}
            eligible = sorted(nid for nid, outs in heads.items() if len(outs) >= 2)
            coded = []
            for tail in eligible[: int(rng.integers(0, 3))]:
                outs = heads[tail]
                size = int(rng.integers(2, min(3, len(outs)) + 1))
                picked = rng.choice(len(outs), size=size, replace=False)
                coded.append((tail, tuple(outs[i] for i in picked)))
            if coded:
                net = build_network(nodes, hyperarcs=coded)
        if net.hyperarc_count > 24:
            continue
        if require_conflict:
            if build_conflict_graph(net, "link").max_conflict_degree < 1:
                continue
        return net
    raise AssertionError("random network generation kept rejecting instances")


def random_commodities(rng, net: Network, max_count: int = 3):
    ids = [nd.id for nd in net.nodes]
    coms = []
    for _ in range(int(rng.integers(1, max_count + 1))):
        s, t = rng.choice(len(ids), size=2, replace=False)
        coms.append(Commodity(ids[int(s)], ids[int(t)]))
    return tuple(coms)


def random_demand(rng, net: Network, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    return rng.uniform(low, high, net.link_count)


# ---------------------------------------------------------------------------
# solution checkers


def schedule_capacity(sol, bandwidth=None) -> np.ndarray:
    """Per-link capacity granted by a solution's schedule weights."""
    n = sol.catalog.link_count
    bw = np.ones(n) if bandwidth is None else np.asarray(bandwidth, dtype=float)
    cap = np.zeros(n)
    for j, w in sol.schedule_weights.items():
        cap += w * sol.catalog.incidence[j]
    return cap * bw


def assert_valid_solution(net: Network, commodities, sol, bandwidth=None) -> None:
    """Independent feasibility audit of a throughput solution.

    Each scheduled set must be independent under the pairwise protocol-model
    test, over links in plain mode and over hyperarcs in coding mode, and
    each commodity's value must be its source's net outflow, summed link by
    link.
    """
    assert sum(sol.schedule_weights.values()) <= 1.0 + BOUNDS_EPS
    adjacency = pairwise_adjacency(net, "hyperarc" if sol.mode == "coding" else "link")
    for j in sol.schedule_weights:
        chosen = sol.catalog.hyperarc_sets[j]
        assert not any(adjacency[v - 1] & chosen for v in chosen), sorted(chosen)
    assert np.all(sol.flows >= -BOUNDS_EPS)
    total = sol.flows.sum(axis=0)
    cap = schedule_capacity(sol, bandwidth)
    assert np.all(total <= cap + 1e-6), (total, cap)
    for i, com in enumerate(commodities):
        for node in net.nodes:
            if node.id in (com.source, com.sink):
                continue
            inflow = sum(sol.flows[i, lk.index - 1] for lk in net.links if lk.head == node.id)
            outflow = sum(sol.flows[i, lk.index - 1] for lk in net.links if lk.tail == node.id)
            assert abs(inflow - outflow) <= 1e-6
        out = sum(sol.flows[i, lk.index - 1] for lk in net.links if lk.tail == com.source)
        into = sum(sol.flows[i, lk.index - 1] for lk in net.links if lk.head == com.source)
        assert abs(sol.per_commodity[i] - (out - into)) <= 1e-12, (i, sol.per_commodity)
    assert len(sol.per_commodity) == len(commodities)
    assert abs(sum(sol.per_commodity) - sol.throughput) <= 1e-6
    assert_exact_zeros(sol, bandwidth)


def assert_exact_zeros(sol, bandwidth=None) -> None:
    """Every returned flow, share and value is exactly 0 or above 1e-12 at the solve's scale.

    The scale is the fastest link: 1e-12 of its airtime for shares, and 1e-12
    times its bandwidth for flows and values.
    """
    cutoff = 1e-12 * (1.0 if bandwidth is None else float(np.max(bandwidth)))
    rates = [*sol.flows.ravel().tolist(), *sol.per_commodity, sol.throughput]
    assert not [v for v in rates if v != 0.0 and v <= cutoff]
    assert not [v for v in sol.schedule_weights.values() if v <= 1e-12]
