"""Greedy coding-first construction of fractional schedules.

The scheduler serves a per-link demand by repeatedly picking a maximal
conflict-free set of hyperarcs, always scanning broadcasts of larger
weight first, and running it for the smallest remaining demand among the
picked vertices. Each round settles at least one link, so the loop runs
at most once per link, and the produced schedule delivers the demand
exactly. Its length never exceeds the worst closed-neighborhood demand,
which also yields a simple sufficient test for fitting a unit time frame.
Rounds run on Python-int bitmasks over scan positions, built once per call:
a scan keeps the lowest free position and then only positions compatible
with every pick, and each link a round settles clears its holders from the
mask of surviving positions, so no round touches every vertex. Residuals
and each position's links are Python lists, so a round makes no numpy call.
A residual at or under ``settle_cutoff`` (1e-12 times the largest demand,
1e-12 once that demand reaches 1) counts as settled.
"""

from __future__ import annotations

import numpy as np

from .conflict import ConflictGraph, compat_masks, row_masks
from .errors import SolverError, ValidationError
from .model import Network
from .schedule import FractionalSchedule, check_per_link, settle_cutoff

_BOUND_ROWS = 1024


def coding_first_ordering(gh: ConflictGraph) -> tuple[int, ...]:
    """The greedy's scan order: vertices by descending weight, then ascending index."""
    weights = np.count_nonzero(gh.sublink_index < gh.link_count, axis=1)
    return tuple((np.argsort(-weights, kind="stable") + 1).tolist())


def _scan_masks(gh: ConflictGraph, order: np.ndarray) -> tuple[list[int], list[int]]:
    # bit k is the k-th vertex in scan order: compat[k] holds the positions
    # not in conflict with k, holders[a] those whose vertex delivers link a
    compat, h = compat_masks(gh, order), len(order)
    delivers = np.zeros((gh.link_count + 1, h), dtype=bool)  # the last row takes the padding
    delivers[gh.sublink_index[order], np.arange(h)[:, None]] = True
    return compat, row_masks(delivers[:-1])


def _scan(free: int, compat: list[int]) -> list[int]:
    # one coding-first pick: the lowest free position, then the lowest compatible with all so far
    picked = []
    while free:
        picked.append((free & -free).bit_length() - 1)
        free &= compat[picked[-1]]
    return picked


def cfs_schedule(network: Network, gh: ConflictGraph, ordering, demand) -> FractionalSchedule:
    """Greedy fractional schedule delivering the demand exactly.

    Every round: each surviving vertex is assigned the minimum residual
    demand over its sub-links, zero-demand vertices leave for good, one
    conflict-free set is chosen coding-first, runs for the smallest
    assigned demand among its members, and that time is subtracted from
    every sub-link it serves. The ordering must list every vertex once.
    """
    n = network.link_count
    if gh.link_count != n:
        raise ValidationError("conflict graph does not match the network")
    if sorted(ordering) != list(range(1, gh.vertex_count + 1)):
        raise ValidationError(f"the ordering is not a permutation of 1..{gh.vertex_count}")
    d = check_per_link(demand, n)
    eps = settle_cutoff(d)
    order = np.array(ordering, dtype=np.intp) - 1
    compat, holders = _scan_masks(gh, order)
    table = gh.sublink_index[order]
    # residuals never grow back, so a position that leaves alive stays out;
    # the trailing +inf sits under the index padding
    (alive,) = row_masks(np.append(d, np.inf)[table].min(axis=1)[None] > eps)
    residual = d.tolist()
    ids = (order + 1).tolist()
    links = [[a for a in row if a < n] for row in table.tolist()]
    entries: list[tuple[frozenset[int], float]] = []
    for _ in range(n + 2):
        if not alive:
            break
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
    else:
        raise SolverError("scheduling failed to settle every link")  # unreachable
    return FractionalSchedule(tuple(entries))


def cfs_length_bound(demand, closed: np.ndarray) -> float:
    """Worst closed-neighborhood demand: the greedy length never exceeds it."""
    d = check_per_link(demand, len(closed))

    def block_max(k: int) -> float:
        # an in-place running sum in ascending link order; a BLAS product may round differently
        part = np.where(closed[k : k + _BOUND_ROWS], d, 0.0)
        return float(np.cumsum(part, axis=1, out=part)[:, -1].max())
    return max(map(block_max, range(0, len(closed), _BOUND_ROWS)), default=0.0)
