"""Greedy coding-first construction of fractional schedules.

The scheduler serves a per-link demand by repeatedly picking a maximal
conflict-free set of hyperarcs, always scanning broadcasts of larger
weight first, and running it for the smallest remaining demand among the
picked vertices. Each round settles at least one link, so the loop runs
at most once per link, and the produced schedule delivers the demand
exactly. Its length never exceeds the worst closed-neighborhood demand,
which also yields a simple sufficient test for fitting a unit time frame.
Rounds run on arrays: residual demands form one vector read and settled
through the graph's sub-link table, and each pick masks out its row of
the hyperarc conflict matrix.
"""

from __future__ import annotations

import numpy as np

from .conflict import ConflictGraph, Neighborhoods
from .errors import SolverError, ValidationError
from .model import Network
from .schedule import FractionalSchedule, check_per_link

_RESIDUAL_EPS = 1e-12


def coding_first_ordering(gh: ConflictGraph) -> tuple[int, ...]:
    """The greedy's scan order: vertices by descending weight, then ascending index."""
    weights = np.count_nonzero(gh.sublink_index < gh.link_count, axis=1)
    return tuple((np.argsort(-weights, kind="stable") + 1).tolist())


def _coding_first_scan(free: np.ndarray, order: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    # free[k], updated in place: the k-th vertex in scan order is still open
    picked = []
    while free.any():
        k = int(free.argmax())
        picked.append(order[k])
        free &= ~matrix[order[k], order]
        free[k] = False
    return np.array(picked, dtype=np.intp)


def cfs_schedule(
    network: Network, gh: ConflictGraph, ordering, demand
) -> FractionalSchedule:
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
    entries: list[tuple[frozenset[int], float]] = []
    for _ in range(n + 2):
        assigned = padded[gh.sublink_index].min(axis=1)
        surviving = assigned > _RESIDUAL_EPS  # residuals never grow back
        if not surviving.any():
            break
        picked = _coding_first_scan(surviving[order], order, gh.matrix)
        lam = float(assigned[picked].min())
        entries.append((frozenset((picked + 1).tolist()), lam))
        # picked vertices share no link, so each served link appears once
        served = gh.sublink_index[picked].ravel()
        left = padded[served] - lam
        padded[served] = np.where(left > _RESIDUAL_EPS, left, 0.0)
    else:
        raise SolverError("scheduling failed to settle every link")  # unreachable
    return FractionalSchedule(tuple(entries))


def cfs_length_bound(demand, neighborhoods: Neighborhoods) -> float:
    """Worst closed-neighborhood demand: the greedy length never exceeds it."""
    d = check_per_link(demand, len(neighborhoods.closed))
    # Python sum in ascending link order; a BLAS product may round differently
    return max((float(sum(d[row])) for row in neighborhoods.closed), default=0.0)
