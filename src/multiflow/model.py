"""Geometric wireless network model: nodes, directed links, broadcast hyperarcs.

A node reaches receivers within its communication radius and occupies the
medium within its interference radius, which is never smaller. Each
network measures every unordered node pair once with ``math.hypot`` and
mirrors the table; its links (the ordered in-range pairs, indexed 1..n in
lexicographic (tail, head) order, their ends kept as node positions) and
its conflict graphs all read that one table. A hyperarc (i, J) is one
broadcast transmission from node i heard by every head in J; its sub-links
(i, j) for j in J must all exist as links, and every link doubles as the
weight-1 hyperarc delivering just itself. One padded table maps each
hyperarc to its sub-links for every reader of the network; the
``Hyperarc`` records are built only when ``hyperarcs`` is first read.
``build_network`` is another name for the ``Network`` constructor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import ValidationError

DEFAULT_MAX_CODING_DEGREE = 3
_MAX_CODED = 100_000  # the most hyperarcs that coding nodes may generate


@dataclass(frozen=True)
class Node:
    """A radio at a fixed position with communication and interference radii."""

    id: int
    x: float
    y: float
    comm_radius: float
    interf_radius: float

    def __post_init__(self) -> None:
        values = (self.x, self.y, self.comm_radius, self.interf_radius)
        if not all(math.isfinite(float(v)) for v in values):
            raise ValidationError(f"node {self.id}: non-finite coordinate or radius")
        if self.comm_radius <= 0:
            raise ValidationError(f"node {self.id}: communication radius must be positive")
        if self.interf_radius < self.comm_radius:
            raise ValidationError(
                f"node {self.id}: interference radius {self.interf_radius} is smaller "
                f"than the communication radius {self.comm_radius}"
            )


@dataclass(frozen=True)
class Link:
    """A directed in-range pair (tail, head) with its 1-based canonical index."""

    tail: int
    head: int
    index: int


@dataclass(frozen=True)
class Hyperarc:
    """A broadcast transmission (tail, heads) with its 1-based index.

    The weight is the number of heads; weight-1 hyperarcs are exactly the
    links and share the link's index.
    """

    tail: int
    heads: frozenset[int]
    index: int

    @property
    def weight(self) -> int:
        return len(self.heads)


class Network:
    """Immutable network: nodes, links from their geometry, and hyperarcs.

    ``distances[p, q]`` is the ``math.hypot`` distance of the p-th and q-th
    nodes in id order; link (i, j) exists when 0 < d(i, j) <= comm_radius(i).
    Read-only ``link_ends`` holds each link's tail and head positions in
    ``nodes`` as its two rows, in link order. Explicit head sets, checked
    here and only here, win over ``coding_nodes``, which give each coding
    node every 2..``max_coding_degree`` subset of its out-neighbors; with
    neither, the hyperarcs are the links. Hyperarcs list one weight-1 entry
    per link, then the coded head sets sorted by (tail, weight, sorted
    heads). Coding node ids must exist, and the degree must be at least 2
    whichever applies. Read-only ``sublink_index[h-1]`` lists hyperarc h's
    0-based link positions in ascending order, padded with ``link_count``
    up to the largest weight (at least one column); ``hyperarcs`` is built
    from it and the kept head sets on first read.
    """

    def __init__(
        self,
        nodes: Iterable[Node],
        hyperarcs: Iterable[tuple[int, Iterable[int]]] | None = None,
        coding_nodes: Iterable[int] | None = None,
        max_coding_degree: int = DEFAULT_MAX_CODING_DEGREE,
    ):
        if max_coding_degree < 2:
            raise ValidationError(f"max_coding_degree must be at least 2, got {max_coding_degree}")
        self._nodes = tuple(sorted(nodes, key=lambda nd: nd.id))
        ids = [nd.id for nd in self._nodes]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate node ids: {dup}")
        self._node_map = {nd.id: nd for nd in self._nodes}
        # the float subtraction and math.hypot of a scalar loop, once per unordered
        # pair: a - b is exactly -(b - a) and hypot ignores signs, so the mirror is exact
        xy = np.array([(nd.x, nd.y) for nd in self._nodes], dtype=float).reshape(-1, 2)
        upper, lower = np.triu_indices(len(ids), 1)
        dx, dy = ((c[upper] - c[lower]).tolist() for c in xy.T)
        dist = np.fromiter(map(math.hypot, dx, dy), dtype=float, count=len(dx))
        self._distances = np.zeros((len(ids), len(ids)))
        self._distances[upper, lower] = self._distances[lower, upper] = dist
        self._distances.flags.writeable = False
        radius = np.array([nd.comm_radius for nd in self._nodes])
        # row-major nonzero order is (tail id, head id) order
        ends = np.array(np.nonzero((self._distances > 0) & (self._distances <= radius[:, None])))
        ends.flags.writeable = False
        self._link_ends = ends
        tail_ids, head_ids = ([ids[p] for p in row] for row in ends.tolist())
        self._links = tuple(map(Link, tail_ids, head_ids, range(1, len(head_ids) + 1)))
        self._by_ends = {(lk.tail, lk.head): lk for lk in self._links}

        n = len(self._links)
        coding = sorted(set(coding_nodes or ()))
        for nid in coding:
            self.node(nid)  # an unknown id raises
        made: set[tuple[int, tuple[int, ...]]] = set()  # explicit (tail, row) keys
        if hyperarcs is None:
            # out-link positions run in head order, so each combination is a table row
            runs = itertools.groupby(range(n), key=tail_ids.__getitem__)
            outs = dict.fromkeys(coding, []) | {tail: list(run) for tail, run in runs}
            sizes = [
                (v, k) for v in coding for k in range(2, min(max_coding_degree, len(outs[v])) + 1)
            ]
            count = sum(math.comb(len(outs[v]), k) for v, k in sizes)
            if count > _MAX_CODED:  # checked before any is made: out-degree d may ask for ~2^d
                raise ValidationError(f"{count} coded hyperarcs, above the limit of {_MAX_CODED}")
            rows = [(v, combo) for v, k in sizes for combo in itertools.combinations(outs[v], k)]
        else:  # explicit head sets as (tail, sub-link positions)
            for tail, heads in hyperarcs:
                listed = list(heads)
                hs = sorted(set(listed))
                if not hs:
                    raise ValidationError(f"hyperarc at node {tail}: empty head set")
                if len(hs) != len(listed):
                    raise ValidationError(f"hyperarc at node {tail}: repeated head id")
                if tail in hs:
                    raise ValidationError(f"hyperarc at node {tail}: tail listed among heads")
                if tail not in self._node_map:
                    raise ValidationError(f"hyperarc tail {tail}: unknown node id")
                for j in hs:
                    if j not in self._node_map:
                        raise ValidationError(f"hyperarc ({tail}, {hs}): unknown head id {j}")
                    if (tail, j) not in self._by_ends:
                        raise ValidationError(
                            f"hyperarc ({tail}, {hs}): sub-link ({tail}, {j}) is not a link"
                        )
                if len(hs) == 1:
                    continue  # already present as the weight-1 hyperarc of that link
                row = tuple(self._by_ends[(tail, j)].index - 1 for j in hs)
                if (tail, row) in made:
                    raise ValidationError(f"duplicate hyperarc ({tail}, {hs})")
                made.add((tail, row))
            rows = sorted(made, key=lambda tr: (tr[0], len(tr[1]), tr[1]))
        weights = [len(row) for _, row in rows]
        table = np.full((n + len(rows), max(weights, default=1)), n, dtype=np.intp)
        table[:n, 0] = np.arange(n)
        for w in set(weights):
            at = [k for k, x in enumerate(weights, n) if x == w]
            cells = itertools.chain.from_iterable(row for _, row in rows if len(row) == w)
            table[at, :w] = np.fromiter(cells, dtype=np.intp, count=len(at) * w).reshape(-1, w)
        table.flags.writeable = False
        self._sublink_index = table
        self._coded = rows

    @property
    def nodes(self) -> tuple[Node, ...]:
        return self._nodes

    @property
    def distances(self) -> np.ndarray:
        return self._distances

    @property
    def link_ends(self) -> np.ndarray:
        return self._link_ends

    @property
    def links(self) -> tuple[Link, ...]:
        return self._links

    @cached_property
    def hyperarcs(self) -> tuple[Hyperarc, ...]:
        heads = [lk.head for lk in self._links]
        arcs = [Hyperarc(lk.tail, frozenset((lk.head,)), lk.index) for lk in self._links]
        for k, (tail, row) in enumerate(self._coded, len(arcs) + 1):
            arcs.append(Hyperarc(tail, frozenset(heads[p] for p in row), k))
        return tuple(arcs)

    @property
    def sublink_index(self) -> np.ndarray:
        return self._sublink_index

    @property
    def link_count(self) -> int:
        return len(self._links)

    @property
    def hyperarc_count(self) -> int:
        return len(self._sublink_index)

    @property
    def max_weight(self) -> int:
        return self._sublink_index.shape[1] if self._links else 0

    def node(self, node_id: int) -> Node:
        try:
            return self._node_map[node_id]
        except KeyError:
            raise ValidationError(f"unknown node id {node_id}") from None

    def find_link(self, tail: int, head: int) -> Link | None:
        return self._by_ends.get((tail, head))


build_network = Network
