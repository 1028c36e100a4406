"""Greedy coding-first construction of fractional schedules.

The scheduler serves a per-link demand by repeatedly picking a maximal
conflict-free set of hyperarcs, always scanning broadcasts of larger
weight first, and running it for the smallest remaining demand among the
picked vertices. Each round settles at least one link, so the loop runs
at most once per link. The schedule's length never exceeds the worst
closed-neighborhood demand, a simple sufficient test for fitting a unit
time frame. Rounds run on Python-int bitmasks over scan positions, built
once per call by ``conflict.vertex_table``: a scan keeps the lowest free
position and then only those compatible with every pick. The alive
positions start as the holders of links above ``settle_cutoff`` less those
of links at or under it, and each link a round settles clears its holders
the same way, so no round touches every vertex and none makes a numpy call.
"""

from __future__ import annotations

import numpy as np

from .conflict import _BLOCK_ROWS, ConflictGraph, vertex_table
from .errors import ValidationError
from .model import Network
from .schedule import FractionalSchedule, check_per_link, settle_cutoff


def coding_first_ordering(gh: ConflictGraph) -> tuple[int, ...]:
    """The greedy's scan order: vertices by descending weight, then ascending index."""
    weights = np.count_nonzero(gh.sublink_index < gh.link_count, axis=1)
    return tuple((np.argsort(-weights, kind="stable") + 1).tolist())


def _scan(free: int, compat: list[int]) -> list[int]:
    # one coding-first pick: the lowest free position, then the lowest compatible with all so far
    picked = []
    while free:
        picked.append((free & -free).bit_length() - 1)
        free &= compat[picked[-1]]
    return picked


def cfs_schedule(network: Network, gh: ConflictGraph, ordering, demand) -> FractionalSchedule:
    """Greedy fractional schedule; on a network's graph it serves the demand exactly.

    Every round: each surviving vertex is assigned the minimum residual
    demand over its sub-links, zero-demand vertices leave for good, one
    conflict-free set is chosen coding-first, runs for the smallest
    assigned demand among its vertices, and that time is subtracted from
    every sub-link it serves. The ordering must list every vertex once.
    On a hand-made graph a vertex with no link is never picked, and a
    link that no surviving vertex holds is left unserved.
    """
    n = network.link_count
    if gh.link_count != n:
        raise ValidationError("conflict graph does not match the network")
    if sorted(ordering) != list(range(1, gh.vertex_count + 1)):
        raise ValidationError(f"the ordering is not a permutation of 1..{gh.vertex_count}")
    d = check_per_link(demand, n)
    eps = settle_cutoff(d)
    order = np.array(ordering, dtype=np.intp) - 1
    compat, links, holders = vertex_table(gh, order)  # bit k: the k-th vertex in scan order
    residual = d.tolist()
    alive = 0
    for mask in (m for x, m in zip(residual, holders) if x > eps):
        alive |= mask
    for mask in (m for x, m in zip(residual, holders) if x <= eps):
        alive &= ~mask
    ids = (order + 1).tolist()
    entries: list[tuple[frozenset[int], float]] = []
    # every round settles the link its lambda came from, and residuals never grow back
    while alive:
        picked = _scan(alive, compat)
        # picked vertices share no link, so each served link appears once
        served = [a for p in picked for a in links[p]]
        lam = min([residual[a] for a in served])
        entries.append((frozenset([ids[p] for p in picked]), lam))
        for a in served:
            left = residual[a] - lam
            if left <= eps:
                left = 0.0
                alive &= ~holders[a]
            residual[a] = left
    return FractionalSchedule(tuple(entries))


def cfs_length_bound(demand, closed: np.ndarray) -> float:
    """Worst closed-neighborhood demand: the greedy length never exceeds it."""
    d = check_per_link(demand, len(closed))
    if closed.shape != (len(d),) * 2:
        raise ValidationError(f"closed is {closed.shape} for {len(d)} links")

    def block_max(k: int) -> float:
        # an in-place running sum in ascending link order; a BLAS product may round differently
        part = np.where(closed[k : k + _BLOCK_ROWS], d, 0.0)
        return float(np.cumsum(part, axis=1, out=part)[:, -1].max())
    return max(map(block_max, range(0, len(closed), _BLOCK_ROWS)), default=0.0)
