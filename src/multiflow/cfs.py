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
mask of surviving positions, so no round touches every vertex.
"""

from __future__ import annotations

import numpy as np

from .conflict import ConflictGraph, Neighborhoods, compat_masks, row_masks
from .errors import SolverError, ValidationError
from .model import Network
from .schedule import FractionalSchedule, check_per_link

_RESIDUAL_EPS = 1e-12


def coding_first_ordering(gh: ConflictGraph) -> tuple[int, ...]:
    """The greedy's scan order: vertices by descending weight, then ascending index."""
    weights = np.count_nonzero(gh.sublink_index < gh.link_count, axis=1)
    return tuple((np.argsort(-weights, kind="stable") + 1).tolist())


def _scan_masks(gh: ConflictGraph, order: np.ndarray) -> tuple[list[int], list[int]]:
    # bit k is the k-th vertex in scan order: compat[k] holds the positions
    # not in conflict with k, holders[a] those whose vertex delivers link a
    h = len(order)
    delivers = np.zeros((gh.link_count + 1, h), dtype=bool)  # the last row takes the padding
    delivers[gh.sublink_index[order], np.arange(h)[:, None]] = True
    return compat_masks(gh, order), row_masks(delivers[:-1])


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
    # residual demand per link plus a trailing +inf under the index padding
    padded = np.append(check_per_link(demand, n), np.inf)
    order = np.array(ordering, dtype=np.intp) - 1
    compat, holders = _scan_masks(gh, order)
    # residuals never grow back, so a position that leaves alive stays out
    (alive,) = row_masks(padded[gh.sublink_index[order]].min(axis=1)[None] > _RESIDUAL_EPS)
    entries: list[tuple[frozenset[int], float]] = []
    for _ in range(n + 2):
        if not alive:
            break
        vertices = order[_scan(alive, compat)]
        # picked vertices share no link, so each served link appears once
        served = gh.sublink_index[vertices].ravel()
        lam = float(padded[served].min())
        entries.append((frozenset((vertices + 1).tolist()), lam))
        padded[served] -= lam
        settled = served[padded[served] <= _RESIDUAL_EPS]
        padded[settled] = 0.0
        for a in settled.tolist():
            alive &= ~holders[a]
    else:
        raise SolverError("scheduling failed to settle every link")  # unreachable
    return FractionalSchedule(tuple(entries))


def cfs_length_bound(demand, neighborhoods: Neighborhoods) -> float:
    """Worst closed-neighborhood demand: the greedy length never exceeds it."""
    d = check_per_link(demand, len(neighborhoods.closed))
    # Python sum in ascending link order; a BLAS product may round differently
    return max((float(sum(d[row])) for row in neighborhoods.closed), default=0.0)
