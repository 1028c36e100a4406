"""Geometric wireless network model: nodes, directed links, broadcast hyperarcs.

A node reaches receivers within its communication radius and occupies the
medium within its interference radius, which is never smaller. Each
network measures every node pair once, with ``math.hypot``; its links (the
ordered in-range pairs, indexed 1..n in lexicographic (tail, head) order)
and its conflict graphs all read that one table. A hyperarc (i, J) is one
broadcast transmission from node i heard by every head in J; its sub-links
(i, j) for j in J must all exist as links, and every link doubles as the
weight-1 hyperarc delivering just itself. One padded table, built with
the hyperarcs, maps each to its sub-links for every reader of the
network. ``build_network`` is another name for the ``Network`` constructor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError

DEFAULT_MAX_CODING_DEGREE = 3


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


def distance(u: Node, v: Node) -> float:
    """Euclidean distance between two nodes."""
    return math.hypot(u.x - v.x, u.y - v.y)


@dataclass(frozen=True)
class Link:
    """A directed in-range pair (tail, head) with its 1-based canonical index."""

    tail: int
    head: int
    index: int

    def __post_init__(self) -> None:
        if self.tail == self.head:
            raise ValidationError(f"link ({self.tail}, {self.head}): tail equals head")


def _checked_heads(tail: int, heads: Iterable[int]) -> frozenset[int]:
    listed = list(heads)
    heads = frozenset(listed)
    if not heads:
        raise ValidationError(f"hyperarc at node {tail}: empty head set")
    if len(heads) != len(listed):
        raise ValidationError(f"hyperarc at node {tail}: repeated head id")
    if tail in heads:
        raise ValidationError(f"hyperarc at node {tail}: tail listed among heads")
    return heads


@dataclass(frozen=True)
class Hyperarc:
    """A broadcast transmission (tail, heads) with its 1-based index.

    The weight is the number of heads; weight-1 hyperarcs are exactly the
    links and share the link's index.
    """

    tail: int
    heads: frozenset[int]
    index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "heads", _checked_heads(self.tail, self.heads))

    @property
    def weight(self) -> int:
        return len(self.heads)


class Network:
    """Immutable network: nodes, links from their geometry, and hyperarcs.

    ``distances[p, q]`` is the ``math.hypot`` distance of the p-th and q-th
    nodes in id order; link (i, j) exists when 0 < d(i, j) <= comm_radius(i).
    Explicit head sets win over ``coding_nodes``, which give each coding
    node every 2..``max_coding_degree`` subset of its out-neighbors; with
    neither, the hyperarcs are the links. Hyperarcs list one weight-1 entry
    per link, with its index, then the coded head sets sorted by (tail,
    weight, sorted heads). Coding node ids must exist, and the degree must
    be at least 2 whichever applies. Read-only ``sublink_index[h-1]`` lists
    hyperarc h's 0-based link positions in ascending order, padded with
    ``link_count`` up to the largest weight (at least one column).
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
        dist = [distance(u, v) for u in self._nodes for v in self._nodes]
        self._distances = np.reshape(dist, (len(ids), len(ids)))
        self._distances.flags.writeable = False
        radius = np.array([nd.comm_radius for nd in self._nodes])
        # row-major nonzero order is (tail id, head id) order
        tails, heads = np.nonzero((self._distances > 0) & (self._distances <= radius[:, None]))
        pairs = zip(tails.tolist(), heads.tolist())
        self._links = tuple(Link(ids[t], ids[h], k + 1) for k, (t, h) in enumerate(pairs))
        self._by_ends = {(lk.tail, lk.head): lk for lk in self._links}

        n = len(self._links)
        coding = sorted(set(coding_nodes or ()))
        for nid in coding:
            self.node(nid)  # an unknown id raises
        made: set[tuple[int, tuple[int, ...]]] = set()  # explicit (tail, row) keys
        if hyperarcs is None:
            # out-link positions run in head order, so each combination is a table row
            runs = itertools.groupby(range(n), key=lambda p: self._links[p].tail)
            outs = {tail: list(run) for tail, run in runs}
            rows = [
                (nid, combo)
                for nid in coding
                for size in range(2, min(max_coding_degree, len(outs.get(nid, ()))) + 1)
                for combo in itertools.combinations(outs[nid], size)
            ]
        else:  # explicit head sets as (tail, sub-link positions)
            for tail, heads in hyperarcs:
                hs = sorted(_checked_heads(tail, heads))
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
        width = max((len(row) for _, row in rows), default=1)
        table = np.full((n + len(rows), width), n, dtype=np.intp)
        table[:n, 0] = np.arange(n)
        arcs = [Hyperarc(lk.tail, frozenset((lk.head,)), lk.index) for lk in self._links]
        for k, (tail, row) in enumerate(rows, n):
            table[k, : len(row)] = row
            arcs.append(Hyperarc(tail, frozenset(self._links[p].head for p in row), k + 1))
        table.flags.writeable = False
        self._sublink_index = table
        self._hyperarcs = tuple(arcs)

    @property
    def nodes(self) -> tuple[Node, ...]:
        return self._nodes

    @property
    def distances(self) -> np.ndarray:
        return self._distances

    @property
    def links(self) -> tuple[Link, ...]:
        return self._links

    @property
    def hyperarcs(self) -> tuple[Hyperarc, ...]:
        return self._hyperarcs

    @property
    def sublink_index(self) -> np.ndarray:
        return self._sublink_index

    @property
    def link_count(self) -> int:
        return len(self._links)

    @property
    def hyperarc_count(self) -> int:
        return len(self._hyperarcs)

    @property
    def max_weight(self) -> int:
        return max((h.weight for h in self._hyperarcs), default=0)

    def node(self, node_id: int) -> Node:
        try:
            return self._node_map[node_id]
        except KeyError:
            raise ValidationError(f"unknown node id {node_id}") from None

    def find_link(self, tail: int, head: int) -> Link | None:
        return self._by_ends.get((tail, head))


build_network = Network
