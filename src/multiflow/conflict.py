"""Protocol-model conflict graphs over links and hyperarcs.

Two links conflict when either transmitter sits within interference range
of the other's receiver; the comparison is inclusive with no slack. Two
hyperarcs conflict when any pair of their sub-links does, so hyperarcs
sharing a tail always conflict. Schedulable sets are the independent sets
of these graphs; the catalog enumerates the maximal ones.

Each graph is one read-only boolean matrix. Distances come from the
network's ``distances`` table (``math.hypot``; numpy's hypot may round a
tie the other way) at its ``link_ends`` positions; one broadcast tests
every link pair, and a hyperarc takes the link rows and columns of its
sub-links, read off the network's padded ``sublink_index`` table; the
links are its first ``link_count`` rows.

The catalog comes from Bron-Kerbosch with pivoting on the complement
graph, each vertex set a Python int with bit v-1 for vertex v; its
complement rows are the ``compat_masks`` the greedy scans with. Catalog
order is ascending sorted vertex tuple; maximal sets never nest, so that
is descending row order read as binary numbers with vertex 1 the top bit:
numpy sorts the packed sets by their bit-reversed bytes and unpacks them
once into a boolean member matrix. Its rows scatter through the sub-link
table into a boolean incidence matrix, which is the member matrix itself
when every vertex delivers just its own link. The inductive schedulable
number is the largest entry of ``incidence @ closed`` (``closed`` the
links' closed neighborhoods). Each pass takes _BLOCK_ROWS rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import EnumerationCapError, ValidationError
from .model import Network

DEFAULT_ENUMERATION_CAP = 24
_BLOCK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class ConflictGraph:
    """A conflict graph with 1-based vertices aligned to link or hyperarc indices.

    ``sublink_index[v-1]`` lists the 0-based links vertex v delivers,
    padded with ``link_count``: ``Network.sublink_index`` at hyperarc
    level, its first ``link_count`` rows at link level; its unpadded
    count is v's weight.
    ``matrix[u-1, v-1]`` is true when u and v conflict; the matrix is
    read-only and symmetric with a false diagonal.
    """

    level: str
    sublink_index: np.ndarray
    link_count: int
    matrix: np.ndarray

    @property
    def vertex_count(self) -> int:
        return len(self.sublink_index)

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.matrix)) // 2

    @property
    def max_conflict_degree(self) -> int:
        return int(np.count_nonzero(self.matrix, axis=1).max(initial=0))

    def _rows(self, vertices: Iterable[int]) -> np.ndarray:
        # 0-based matrix rows; numpy would read 0 and negative ids from the end
        idx = np.array(list(vertices), dtype=np.intp)
        if np.any((idx < 1) | (idx > self.vertex_count)):
            raise ValidationError(f"vertex ids must lie in 1..{self.vertex_count}")
        return idx - 1

    def conflicts(self, u: int, v: int) -> bool:
        i, j = self._rows((u, v))
        return bool(self.matrix[i, j])

    def is_independent(self, vertices: Iterable[int]) -> bool:
        idx = self._rows(sorted(set(vertices)))
        return not self.matrix[np.ix_(idx, idx)].any()


def _gather_any(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    # out[u] ORs rows[index[u, k]] over k: one row gather per column of index
    out = np.take(rows, index[:, 0], axis=0)
    for column in index.T[1:]:
        out |= np.take(rows, column, axis=0)
    return out


def build_conflict_graph(network: Network, level: str = "link") -> ConflictGraph:
    """Build the conflict graph of a network at link or hyperarc level."""
    if level not in ("link", "hyperarc"):
        raise ValidationError(f"unknown conflict graph level {level!r}")
    n = network.link_count
    # the links are the first n hyperarcs, each delivering itself alone
    index = network.sublink_index[: n if level == "link" else None]

    tails, heads = network.link_ends
    rho = np.array([nd.interf_radius for nd in network.nodes])[tails]
    # hit[a, b]: the transmitter of link a reaches the receiver of link b,
    # so the diagonal is true; the trailing false row and column absorb padding
    hit = np.zeros((n + 1, n + 1), dtype=bool)
    reach = np.take(np.take(network.distances, tails, axis=0), heads, axis=1)
    np.less_equal(reach, rho[:, None], out=hit[:n, :n])
    hit |= hit.T
    # touched[u, b]: some sub-link of u conflicts with link b; the matrix is
    # symmetric, so matrix[v, u] ORs touched[u, b] over v's sub-links b
    touched = _gather_any(hit, index)
    matrix = _gather_any(np.ascontiguousarray(touched.T), index)
    np.fill_diagonal(matrix, False)
    matrix.flags.writeable = False
    return ConflictGraph(level=level, sublink_index=index, link_count=n, matrix=matrix)


@dataclass(frozen=True, eq=False)
class SchedulableSetCatalog:
    """Maximal schedulable sets with their sub-link expansions.

    ``member[k]`` is a maximal independent set and ``incidence[k]`` the union
    of its vertices' sub-links, as read-only boolean rows over the vertices
    and the links; ``incidence`` is ``member`` when every vertex delivers
    exactly its own link. ``hyperarc_sets`` and ``sublink_sets`` split those
    rows into frozensets of 1-based ids on first read.
    """

    member: np.ndarray
    incidence: np.ndarray
    link_count: int

    def __len__(self) -> int:
        return len(self.member)

    @cached_property
    def hyperarc_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, _row_lists(self.member)))

    @cached_property
    def sublink_sets(self) -> tuple[frozenset[int], ...]:
        if self.incidence is self.member:
            return self.hyperarc_sets
        return tuple(map(frozenset, _row_lists(self.incidence)))


def _bits(x: int):
    # positions of the set bits of x, lowest first
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def row_masks(rows: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as a Python int, bit k set where column k is."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def compat_masks(cg: ConflictGraph, order: np.ndarray) -> list[int]:
    """Bit j of mask k: matrix rows order[j] and order[k] are distinct, non-conflicting vertices."""
    compat: list[int] = []
    for s in range(0, len(order), _BLOCK_ROWS):  # a block of rows, never a second V x V matrix
        block = np.take(np.take(cg.matrix, order[s : s + _BLOCK_ROWS], axis=0), order, axis=1)
        np.logical_not(block, out=block)
        block[np.arange(len(block)), np.arange(s, s + len(block))] = False
        compat += row_masks(block)
    return compat


def _maximal_independent_sets(cg: ConflictGraph) -> np.ndarray:
    # Bron-Kerbosch with pivot on the complement graph over int bitmasks (bit
    # v-1 is vertex v), on an explicit stack of pending (chosen, cand, excl)
    # calls; one bool row per maximal set, in catalog order
    n = cg.vertex_count
    if n == 0:
        return np.zeros((0, 0), dtype=bool)
    compat = compat_masks(cg, np.arange(n))
    width = (n + 7) // 8
    found = bytearray()  # each set's mask as width little-endian bytes
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        chosen, cand, excl = stack.pop()
        if not cand and not excl:
            found += chosen.to_bytes(width, "little")
            continue
        pivot = max(_bits(cand | excl), key=lambda u: (cand & compat[u]).bit_count())
        for v in _bits(cand & ~compat[pivot]):
            stack.append((chosen | 1 << v, cand & compat[v], excl & compat[v]))
            cand ^= 1 << v
            excl |= 1 << v
    packed = np.frombuffer(found, dtype=np.uint8).reshape(-1, width)
    # maximal sets never nest, so sorted-vertex-tuple order is descending row order with
    # vertex 1 the top bit: each little-endian mask byte read with its bits reversed
    flip = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)
    order = np.lexsort(~flip[packed].T[::-1])
    return np.unpackbits(packed[order], axis=1, count=n, bitorder="little").view(bool)


def _row_lists(rows: np.ndarray) -> list[list[int]]:
    # the ascending 1-based column ids of each row's nonzero entries
    lists: list[list[int]] = []
    for s in range(0, len(rows), _BLOCK_ROWS):
        ends = np.cumsum(np.count_nonzero(rows[s : s + _BLOCK_ROWS], axis=1)).tolist()
        ids = (np.flatnonzero(rows[s : s + _BLOCK_ROWS]) % rows.shape[1] + 1).tolist()
        lists += [ids[b:e] for b, e in zip([0, *ends], ends)]
    return lists


def enumerate_schedulable_sets(
    cg: ConflictGraph, cap: int = DEFAULT_ENUMERATION_CAP
) -> SchedulableSetCatalog:
    """Enumerate every maximal independent set of the conflict graph.

    Raises ValidationError for a negative ``cap`` and EnumerationCapError
    above ``cap`` vertices, where the greedy scheduler fits instead. The
    output order is deterministic (sorted by vertex tuple).
    """
    if cap < 0:
        raise ValidationError(f"the enumeration cap must be nonnegative, got {cap}")
    if cg.vertex_count > cap:
        raise EnumerationCapError(
            f"{cg.vertex_count} vertices exceed the exact enumeration cap of {cap}; "
            f"raise the cap or use the greedy scheduler"
        )
    member = _maximal_independent_sets(cg)
    member.flags.writeable = False
    n, index = cg.link_count, cg.sublink_index
    if cg.vertex_count == n and (index[:, 0] == np.arange(n)).all() and (index[:, 1:] == n).all():
        return SchedulableSetCatalog(member=member, incidence=member, link_count=n)
    incidence = np.zeros((len(member), n), dtype=bool)
    for s in range(0, len(member), _BLOCK_ROWS):
        rows, verts = np.nonzero(member[s : s + _BLOCK_ROWS])
        rows, links = np.broadcast_arrays(s + rows[:, None], index[verts])
        incidence[rows[links < n], links[links < n]] = True  # n pads the sub-link table
    incidence.flags.writeable = False
    return SchedulableSetCatalog(member=member, incidence=incidence, link_count=n)


def closed_neighborhoods(g: ConflictGraph) -> np.ndarray:
    """Closed link neighborhoods: read-only ``closed[a-1, b-1]`` is a == b or a conflict."""
    if g.level != "link":
        raise ValidationError("closed neighborhoods are defined over the link-level graph")
    closed = g.matrix | np.eye(g.vertex_count, dtype=bool)
    closed.flags.writeable = False
    return closed


def inductive_schedulable_number(catalog: SchedulableSetCatalog, closed: np.ndarray) -> int:
    """Largest overlap between a schedulable sub-link set and a closed neighborhood.

    This is the factor by which the greedy schedule length can exceed the
    optimal fractional length.
    """
    if not len(catalog):
        raise ValidationError("empty schedulable-set catalog")
    if not closed.size:
        raise ValidationError("no links, so no conflict neighborhoods")
    # overlap counts for _BLOCK_ROWS sets at a time, never a catalog-sized product,
    # in float: a boolean product would OR the overlaps, not count them
    blocks = (catalog.incidence[k : k + _BLOCK_ROWS] for k in range(0, len(catalog), _BLOCK_ROWS))
    return int(max((block.astype(float) @ closed).max() for block in blocks))
