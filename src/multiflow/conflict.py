"""Protocol-model conflict graphs over links and hyperarcs.

Two links conflict when either transmitter sits within interference range
of the other's receiver; the comparison is inclusive with no slack. Two
hyperarcs conflict when any pair of their sub-links does, so hyperarcs
sharing a tail always conflict. Schedulable sets are the independent sets
of these graphs; the catalog enumerates the maximal ones.

Each graph is one read-only boolean matrix. Distances come from the
network's ``distances`` table (``math.hypot``; numpy's hypot may round a
tie the other way); one broadcast tests every link pair, and a hyperarc
takes the link rows and columns of its sub-links, read off the network's
padded ``sublink_index`` table; the links are its first ``link_count`` rows.

The catalog comes from Bron-Kerbosch with pivoting on the complement
graph, each vertex set a Python int with bit v-1 for vertex v; its
complement rows are the ``compat_masks`` the greedy scans with. The found
sets are unpacked into one boolean member matrix, which scatters through
the sub-link table into the incidence matrix and splits into frozensets,
shared with the vertex sets when the two matrices hold the same values.
Catalog order is ascending sorted vertex tuple; maximal sets never nest,
so that is descending row order read as binary numbers with vertex 1 the
top bit, and numpy sorts the packed rows without building tuples. The
inductive schedulable number is the largest entry of ``incidence @
closed`` (``closed`` the links' closed neighborhoods), a block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import EnumerationCapError, ValidationError
from .model import Network

DEFAULT_ENUMERATION_CAP = 24
_ISN_ROWS = 4096
_MASK_ROWS = 1024


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


def build_conflict_graph(network: Network, level: str = "link") -> ConflictGraph:
    """Build the conflict graph of a network at link or hyperarc level."""
    if level not in ("link", "hyperarc"):
        raise ValidationError(f"unknown conflict graph level {level!r}")
    n = network.link_count
    # the links are the first n hyperarcs, each delivering itself alone
    index = network.sublink_index[: n if level == "link" else None]

    nodes = network.nodes
    position = {nd.id: p for p, nd in enumerate(nodes)}
    tails = [position[lk.tail] for lk in network.links]
    heads = [position[lk.head] for lk in network.links]
    rho = np.array([nodes[p].interf_radius for p in tails])
    # hit[a, b]: the transmitter of link a reaches the receiver of link b,
    # so the diagonal is true; the trailing false row and column absorb padding
    hit = np.zeros((n + 1, n + 1), dtype=bool)
    hit[:n, :n] = network.distances[np.ix_(tails, heads)] <= rho[:, None]
    # touched[u, b]: some sub-link of u conflicts with link b
    touched = (hit | hit.T)[index].any(axis=1)
    matrix = touched[:, index].any(axis=2)
    np.fill_diagonal(matrix, False)
    matrix.flags.writeable = False
    return ConflictGraph(level=level, sublink_index=index, link_count=n, matrix=matrix)


@dataclass(frozen=True, eq=False)
class SchedulableSetCatalog:
    """Maximal schedulable sets with their sub-link expansions.

    ``hyperarc_sets[k]`` is a maximal independent set of graph vertices;
    ``sublink_sets[k]`` is the union of those vertices' sub-links; and
    ``incidence[k]`` is its 0/1 row over the link ordering.
    """

    hyperarc_sets: tuple[frozenset[int], ...]
    sublink_sets: tuple[frozenset[int], ...]
    incidence: np.ndarray
    link_count: int

    def __len__(self) -> int:
        return len(self.hyperarc_sets)


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
    for s in range(0, len(order), _MASK_ROWS):  # a block of rows, never a second V x V matrix
        block = np.logical_not(cg.matrix[np.ix_(order[s : s + _MASK_ROWS], order)])
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
    found: list[int] = []
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        chosen, cand, excl = stack.pop()
        if not cand and not excl:
            found.append(chosen)
            continue
        pivot = max(_bits(cand | excl), key=lambda u: (cand & compat[u]).bit_count())
        for v in _bits(cand & ~compat[pivot]):
            stack.append((chosen | 1 << v, cand & compat[v], excl & compat[v]))
            cand ^= 1 << v
            excl |= 1 << v
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in found), dtype=np.uint8)
    member = np.unpackbits(packed.reshape(len(found), width), axis=1, count=n, bitorder="little")
    # maximal sets never nest, so ascending sorted-vertex-tuple order is
    # descending row order with vertex 1 as the most significant bit
    order = np.lexsort(~np.packbits(member, axis=1).T[::-1])
    return member.view(bool)[order]


def _row_sets(rows: np.ndarray) -> tuple[frozenset[int], ...]:
    # the 1-based column ids of each row's nonzero entries
    ends = np.cumsum(np.count_nonzero(rows, axis=1)).tolist()
    ids = (np.nonzero(rows)[1] + 1).tolist()
    return tuple(frozenset(ids[b:e]) for b, e in zip([0, *ends], ends))


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
    sets = _row_sets(member)
    n = cg.link_count
    rows, verts = np.nonzero(member)
    links = cg.sublink_index[verts]
    real = links < n
    incidence = np.zeros((len(member), n))
    incidence[np.broadcast_to(rows[:, None], links.shape)[real], links[real]] = 1.0
    same = np.array_equal(member, incidence)  # every set's links are its vertex ids
    del member, rows, verts, links, real
    return SchedulableSetCatalog(
        hyperarc_sets=sets,
        sublink_sets=sets if same else _row_sets(incidence),
        incidence=incidence,
        link_count=n,
    )


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
    if not catalog.sublink_sets:
        raise ValidationError("empty schedulable-set catalog")
    if not closed.size:
        raise ValidationError("no links, so no conflict neighborhoods")
    # overlap counts for _ISN_ROWS sets at a time, never a catalog-sized product
    blocks = range(0, len(catalog), _ISN_ROWS)
    return int(max((catalog.incidence[k : k + _ISN_ROWS] @ closed).max() for k in blocks))
