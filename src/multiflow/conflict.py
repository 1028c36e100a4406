"""Protocol-model conflict graphs over links and hyperarcs.

Two links conflict when either transmitter sits within interference range
of the other's receiver; the comparison is inclusive with no slack, on the
network's ``distances`` table (``math.hypot``; numpy's hypot may round a
tie the other way). A graph stores just this read-only link relation and
each vertex's links, its row of the padded ``sublink_index`` table: two
vertices conflict when any pair of their links does, so hyperarcs sharing
a tail always conflict. The counts, the greedy and the catalog read the
packer ``compat_masks``, and closed neighborhoods are a view of the
relation: no vertex matrix. Schedulable sets are the independent sets of
these graphs; the catalog enumerates the maximal ones.

The catalog comes from Bron-Kerbosch with pivoting on the complement graph,
each vertex set a Python int with bit v-1 for vertex v, and stops past
_MAX_SETS sets. numpy sorts the packed sets into catalog order, ascending
sorted vertex tuple, and unpacks them once into a boolean member matrix. Its
rows scatter through the sub-link table into a boolean incidence matrix,
which is the member matrix itself when every vertex delivers just its own
link. The inductive schedulable number is the largest entry of
``incidence @ closed`` (``closed`` the links' closed neighborhoods). Each
pass takes _BLOCK_ROWS rows at a time.

When the two differ, the catalog marks its link-maximal sets without a
sets × sets table: another set's links strictly contain those of set S
exactly when a member h can swap for a vertex g whose links strictly
contain h's and which conflicts with no other member. Sound on any graph
accepted here: g's extra link is in no other member, since vertices sharing
a link conflict, so S - h + g extends to a set with strictly more links.
Complete on a network's graph: a set holds each tail at most once, so a
dominating set upgrades some member on that member's own tail.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import EnumerationCapError, ValidationError
from .model import Network

DEFAULT_ENUMERATION_CAP = 24
_BLOCK_ROWS = 1024
_MAX_SETS = 1_000_000  # the most maximal sets a catalog may hold


@dataclass(frozen=True, eq=False)
class ConflictGraph:
    """A conflict graph with 1-based vertices aligned to link or hyperarc indices.

    ``sublink_index[v-1]`` lists the 0-based links vertex v delivers, padded with
    ``link_count``: ``Network.sublink_index``, or its first ``link_count`` rows at link
    level; its unpadded count is v's weight. ``relation`` is the read-only symmetric link
    relation, true on the diagonal, with a false padding row and column ``link_count``;
    vertices sharing a link conflict; the constructor checks all of it. ``level`` is a
    label: a network's levels share one relation.
    """

    level: str
    sublink_index: np.ndarray
    relation: np.ndarray

    def __post_init__(self) -> None:
        if self.level not in ("link", "hyperarc"):
            raise ValidationError(f"unknown conflict graph level {self.level!r}")
        rel, index = self.relation, self.sublink_index
        n = len(rel) - 1 if rel.ndim == 2 and rel.shape[0] == rel.shape[1] else -1
        if rel.dtype != bool or n < 0 or rel[n].any() or rel[:, n].any():
            raise ValidationError(f"relation {rel.shape}: not square bool with false padding")
        if index.ndim != 2 or index.dtype.kind not in "iu" or ((index < 0) | (index > n)).any():
            raise ValidationError(f"sublink_index must be 2-D integers in 0..{n}")
        # each upper tile of _BLOCK_ROWS² against its mirror, never a links² temporary
        tile = _BLOCK_ROWS
        asymmetric = (
            (rel[j : j + tile, i : i + tile].T != rel[i : i + tile, j : j + tile]).any()
            for i in range(0, n, tile)
            for j in range(i, n, tile)
        )
        if not rel.diagonal()[:n].all() or any(asymmetric):
            raise ValidationError("relation: not symmetric with a true diagonal on the links")

    @property
    def link_count(self) -> int:
        return len(self.relation) - 1

    @property
    def vertex_count(self) -> int:
        return len(self.sublink_index)

    @cached_property
    def _degrees(self) -> np.ndarray:
        h = self.vertex_count
        return np.fromiter((h - 1 - m.bit_count() for m in compat_masks(self, np.arange(h))), int)

    @property
    def edge_count(self) -> int:
        return int(self._degrees.sum()) // 2

    @property
    def max_conflict_degree(self) -> int:
        return int(self._degrees.max(initial=0))


def _gather_any(rows: np.ndarray, index: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # out[u] ORs rows[index[u, k]] over k: a row gather per column of index, the later
    # ones _BLOCK_ROWS at a time into one buffer; every index is in range, and "wrap"
    # spares numpy the copy of out it makes under "raise"
    out = np.take(rows, index[:, 0], axis=0, out=out, mode="wrap")
    buf = np.empty((min(_BLOCK_ROWS, len(index)), *rows.shape[1:]), dtype=rows.dtype)
    for column in index.T[1:]:
        for s in range(0, len(index), _BLOCK_ROWS):
            part = buf[: len(index) - s]
            np.take(rows, column[s : s + len(part)], axis=0, out=part, mode="wrap")
            out[s : s + len(part)] |= part
    return out


def build_conflict_graph(network: Network, level: str = "link") -> ConflictGraph:
    """Build the conflict graph of a network at link or hyperarc level."""
    n = network.link_count
    # the links are the first n hyperarcs, each delivering itself alone
    index = network.sublink_index[: n if level == "link" else None]

    tails, heads = network.link_ends
    m = len(network.nodes)
    reach = network.distances <= np.array([nd.interf_radius for nd in network.nodes])[:, None]
    # sides[p, b]: node p reaches link b's receiver; sides[m + p, b]: link b's
    # transmitter reaches node p; the false last column takes the padding
    sides = np.zeros((2 * m, n + 1), dtype=bool)
    sides[:m, :n], sides[m:, :n] = reach[:, heads], reach.T[:, tails]
    # hit[a, b]: either link's transmitter reaches the other's receiver
    hit = np.zeros((n + 1, n + 1), dtype=bool)
    _gather_any(sides, np.stack([tails, m + heads], axis=1), out=hit[:n])
    hit.flags.writeable = False
    return ConflictGraph(level, sublink_index=index, relation=hit)


@dataclass(frozen=True, eq=False)
class SchedulableSetCatalog:
    """Maximal schedulable sets with their sub-link expansions.

    ``member[k]`` is a maximal independent set and ``incidence[k]`` the union
    of its vertices' sub-links, as read-only boolean rows over the vertices
    and the links; ``incidence`` is ``member`` when every vertex delivers
    exactly its own link. ``hyperarc_sets`` and ``sublink_sets`` split those
    rows into frozensets of 1-based ids on first read. ``link_maximal[k]``, read-only,
    is false when another set's links strictly contain set k's, and the LPs price only
    the marked sets; None leaves the catalog unmarked, and the LPs price every set.
    Enumeration leaves a catalog unmarked when ``incidence`` is ``member``, where
    maximal sets never nest.
    """

    member: np.ndarray
    incidence: np.ndarray
    link_maximal: np.ndarray | None = None

    @property
    def link_count(self) -> int:
        return self.incidence.shape[1]

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


def compat_masks(cg: ConflictGraph, order: np.ndarray) -> list[int]:
    """Bit j of mask k: vertices order[j] and order[k] (0-based) are distinct, non-conflicting."""
    rows, h, width = cg.sublink_index[order], len(order), len(cg.relation)
    # touched[j, i, b]: link b relates to a link of position 8j + i; packed[j, b] has it in bit i
    touched = np.zeros((-(-h // 8), 8, width), dtype=np.uint8)
    _gather_any(cg.relation.view(np.uint8), rows, out=touched.reshape(-1, width)[:h])
    packed = touched[:, 0].copy()
    for i in range(1, 8):
        packed |= touched[:, i] << i
    del touched
    # seen[b]: the positions whose vertex relates to link b, as one int
    seen = [int.from_bytes(row.tobytes(), "little") for row in packed.T.copy()]
    related = map(seen.__getitem__, rows[:, 0].tolist())
    for column in rows.T[1:].tolist():
        related = map(operator.or_, related, map(seen.__getitem__, column))
    # a vertex with no link relates to none, itself included, so its own bit is cleared here
    full = (1 << h) - 1
    return [full ^ (mask | 1 << k) for k, mask in enumerate(related)]


def _maximal_independent_sets(compat: list[int]) -> np.ndarray:
    # Bron-Kerbosch with pivot on the complement graph over int bitmasks (bit
    # v-1 is vertex v), on an explicit stack of pending (chosen, cand, excl)
    # calls; each maximal set's little-endian mask bytes as a row, in catalog order
    n = len(compat)
    if n == 0:
        return np.zeros((0, 0), dtype=np.uint8)
    width = (n + 7) // 8
    found = bytearray()  # each set's mask as width little-endian bytes
    limit = _MAX_SETS * width
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        chosen, cand, excl = stack.pop()
        if not cand and not excl:
            found += chosen.to_bytes(width, "little")
            if len(found) > limit:
                count = len(found) // width
                raise EnumerationCapError(f"{count} schedulable sets pass the limit of {_MAX_SETS}")
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
    return packed[np.lexsort(~flip[packed].T[::-1])]


def _link_maximal(cg: ConflictGraph, compat: list[int], packed: np.ndarray) -> np.ndarray:
    # the module docstring's swap test, one pass a set: a g whose links strictly contain
    # member h's shares a link with h, so it lies outside the set and conflicts with h alone
    n, full = cg.link_count, (1 << cg.vertex_count) - 1
    links = [set(row) - {n} for row in cg.sublink_index.tolist()]
    holders, weighing = [0] * n, [0] * (max(map(len, links), default=0) + 1)
    for v, own in enumerate(links):
        weighing[len(own)] |= 1 << v
        for a in own:
            holders[a] |= 1 << v
    # up[v]: the vertices whose links strictly contain v's, none when v has no link
    up = [reduce(operator.and_, map(holders.__getitem__, own), full if own else 0) for own in links]
    up = [sup & ~weighing[len(own)] for sup, own in zip(up, links)]
    conflicts = [full ^ c for c in compat]  # each with its own bit
    keep, data, width = np.ones(len(packed), dtype=bool), packed.tobytes(), packed.shape[1]
    for k in range(len(packed)):
        chosen = int.from_bytes(data[k * width : (k + 1) * width], "little")
        once = twice = upgrades = 0  # conflicting with one member, with two or more
        for u in _bits(chosen):
            twice |= once & conflicts[u]
            once |= conflicts[u]
            upgrades |= up[u]
        keep[k] = not (upgrades & once & ~twice & ~chosen)
    return keep


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
    above ``cap`` vertices or past _MAX_SETS sets, where the greedy
    scheduler fits instead. The output order is deterministic (sorted by
    vertex tuple).
    """
    if cap < 0:
        raise ValidationError(f"the enumeration cap must be nonnegative, got {cap}")
    if cg.vertex_count > cap:
        raise EnumerationCapError(
            f"{cg.vertex_count} vertices exceed the exact enumeration cap of {cap}; "
            f"raise the cap or use the greedy scheduler"
        )
    compat = compat_masks(cg, np.arange(cg.vertex_count))
    packed = _maximal_independent_sets(compat)
    member = np.unpackbits(packed, axis=1, count=cg.vertex_count, bitorder="little").view(bool)
    member.flags.writeable = False
    n, index = cg.link_count, cg.sublink_index
    if cg.vertex_count == n and (index[:, 0] == np.arange(n)).all() and (index[:, 1:] == n).all():
        return SchedulableSetCatalog(member=member, incidence=member)
    incidence = np.zeros((len(member), n), dtype=bool)
    for s in range(0, len(member), _BLOCK_ROWS):
        rows, verts = np.nonzero(member[s : s + _BLOCK_ROWS])
        rows, links = np.broadcast_arrays(s + rows[:, None], index[verts])
        incidence[rows[links < n], links[links < n]] = True  # n pads the sub-link table
    incidence.flags.writeable = False
    link_maximal = _link_maximal(cg, compat, packed)
    link_maximal.flags.writeable = False
    return SchedulableSetCatalog(member=member, incidence=incidence, link_maximal=link_maximal)


def closed_neighborhoods(g: ConflictGraph) -> np.ndarray:
    """A read-only view of ``relation`` at either level: [a-1, b-1] is a == b or a conflict."""
    return g.relation[: g.link_count, : g.link_count]


def inductive_schedulable_number(catalog: SchedulableSetCatalog, closed: np.ndarray) -> int:
    """Largest overlap between a schedulable sub-link set and a closed neighborhood.

    This is the factor by which the greedy schedule length can exceed the
    optimal fractional length.
    """
    if not len(catalog):
        raise ValidationError("empty schedulable-set catalog")
    if closed.shape != (catalog.link_count,) * 2:
        raise ValidationError(f"closed is {closed.shape} for {catalog.link_count} links")
    if not closed.size:
        raise ValidationError("no links, so no conflict neighborhoods")
    # overlap counts for _BLOCK_ROWS sets at a time, never a catalog-sized product,
    # in float: a boolean product would OR the overlaps, not count them
    blocks = (catalog.incidence[k : k + _BLOCK_ROWS] for k in range(0, len(catalog), _BLOCK_ROWS))
    return int(max((block.astype(float) @ closed).max() for block in blocks))
