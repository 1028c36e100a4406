"""Maximum multiflow over schedulable-set polytopes.

The throughput LP routes one fractional flow per commodity and buys time
shares of schedulable sets: flow variables per (commodity, link), one
share variable per catalog set, conservation at non-terminals, per-link
capacity rows coupling total flow to the bought shares, and a unit budget
on the shares. Link bandwidths divide the flow terms in the capacity
rows, so a link of bandwidth 2 carries twice the flow per unit of airtime.
The LP runs in units of the fastest link, every bandwidth divided by the
largest, and its flows and throughput are scaled back, so bandwidths may
be in any positive unit although the simplex's tolerances are absolute.

One covering LP over the same catalog computes optimal fractional
schedules, whose length is the minimum total airtime needed to serve a
demand vector, and answers membership queries with it: a per-link demand
is achievable within one time unit exactly when that length is at most 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .conflict import (
    DEFAULT_ENUMERATION_CAP,
    SchedulableSetCatalog,
    build_conflict_graph,
    enumerate_schedulable_sets,
)
from .errors import SolverError, UncoverableDemandError, ValidationError
from .lp import LinearProgram, solve_lp
from .model import Network
from .schedule import FractionalSchedule, check_per_link, settle_cutoff

MODES = ("plain", "coding")
_LENGTH_EPS = 1e-9


@dataclass(frozen=True)
class Commodity:
    """A source-sink pair to be routed."""

    source: int
    sink: int

    def __post_init__(self) -> None:
        if self.source == self.sink:
            raise ValidationError(f"commodity {self.source}->{self.sink}: source equals sink")


@dataclass(frozen=True, eq=False)
class MmfSolution:
    """Result of a throughput solve.

    ``flows[i]`` is commodity i's per-link rates and ``per_commodity[i]``
    its objective row times them, the net rate out of its source;
    ``schedule_weights`` maps catalog set positions (0-based) to their
    time shares, which form the schedule certificate with ``catalog``.
    Every zero is exact, set by ``settle_cutoff`` in units of the fastest link.
    """

    mode: str
    throughput: float
    per_commodity: tuple[float, ...]
    flows: np.ndarray
    schedule_weights: dict[int, float]
    catalog: SchedulableSetCatalog
    exact_throughput: Fraction | None = None


@dataclass(frozen=True, eq=False)
class Membership:
    """Outcome of a polytope membership query."""

    inside: bool
    certificate: dict[int, float] | None = None


def _validate_bandwidth(network: Network, bandwidth) -> np.ndarray:
    if bandwidth is None:
        return np.ones(network.link_count)
    b = check_per_link(bandwidth, network.link_count, "bandwidth")
    if np.any(b <= 0):
        raise ValidationError("bandwidths must be positive")
    return b


def solve_mmf(
    network: Network,
    commodities: Iterable[Commodity],
    mode: str = "plain",
    bandwidth=None,
    cap: int = DEFAULT_ENUMERATION_CAP,
    exact_check: bool = False,
) -> MmfSolution:
    """Maximize the total value over all commodities' simultaneous flows.

    ``mode`` picks the catalog: "plain" schedules single links only,
    "coding" schedules the network's hyperarcs so one broadcast may serve
    several links at once. Raises EnumerationCapError when the relevant
    conflict graph exceeds ``cap`` vertices.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    commodities = tuple(commodities)
    for com in commodities:
        network.node(com.source)
        network.node(com.sink)
    bw = _validate_bandwidth(network, bandwidth)
    # solve in units of the fastest link, so every capacity coefficient is at least 1
    scale = float(bw.max(initial=0.0)) or 1.0
    bw = bw / scale
    level = "hyperarc" if mode == "coding" else "link"
    catalog = enumerate_schedulable_sets(build_conflict_graph(network, level), cap)

    n = network.link_count
    k = len(commodities)
    # inflow[p, a]: +1 when link a enters the p-th node, -1 when it leaves it
    # (a link's tail and head differ, so each entry is written at most once)
    inflow = np.zeros((len(network.nodes), n))
    inflow[network.link_ends, np.arange(n)] = [[-1.0], [1.0]]
    position = {node.id: p for p, node in enumerate(network.nodes)}
    pairs = [(position[com.source], position[com.sink]) for com in commodities]
    ends = np.array(pairs, dtype=np.intp).reshape(k, 2)
    # conservation at every node a link touches, except the commodity's own ends
    inner = np.tile(inflow.any(axis=1), (k, 1))
    inner[np.arange(k)[:, None], ends] = False
    com_of, node_of = np.nonzero(inner)
    # variable layout: commodity i's flow on link a at i*n + (a-1), then shares;
    # rows: the conservation equalities, one capacity row per link, the budget
    conserve = com_of.size
    c = np.append(0.0 - inflow[ends[:, 0]], np.zeros(len(catalog)))  # unlike -x, no -0.0
    A = np.zeros((conserve + n + 1, c.size))
    A[np.arange(conserve)[:, None], com_of[:, None] * n + np.arange(n)] = inflow[node_of]
    A[conserve:-1, : k * n] = np.tile(np.diag(1.0 / bw), k)
    np.negative(catalog.incidence.T, dtype=float, out=A[conserve:-1, k * n :])
    A[-1, k * n :] = 1.0  # the budget
    bounds = np.zeros(A.shape[0])
    bounds[-1] = 1.0
    program = LinearProgram(c, A, bounds, equal=np.arange(A.shape[0]) < conserve)

    out = solve_lp(program, exact_check=exact_check)
    if out.status != "optimal":
        raise SolverError(f"throughput LP ended {out.status}")
    eps = settle_cutoff(bw)  # at the LP's scale, the fastest link's airtime: 1e-12
    x = np.where(out.x > eps, out.x, 0.0)
    flows = x[: k * n].reshape(k, n) * scale
    objectives = c[: k * n].reshape(k, n)  # +1 on the source's out-links, -1 on its in-links
    values = [sum(f[r > 0]) - sum(f[r < 0]) for f, r in zip(flows, objectives)]
    *per, value = (float(v) if v > eps * scale else 0.0 for v in values + [out.value * scale])
    return MmfSolution(
        mode=mode,
        throughput=value,
        per_commodity=tuple(per),
        flows=flows,
        schedule_weights={j: float(v) for j, v in enumerate(x[k * n :]) if v},
        catalog=catalog,
        exact_throughput=None if out.exact_value is None else out.exact_value * Fraction(scale),
    )


def _covering_shares(demand, catalog: SchedulableSetCatalog) -> tuple[dict[int, float], float]:
    # minimize the total share subject to covering every link's demand
    d = check_per_link(demand, catalog.link_count)
    missing = (np.flatnonzero((d > 0) & ~catalog.incidence.any(axis=0)) + 1).tolist()
    if missing:
        raise UncoverableDemandError(
            f"links {missing} have positive demand but appear in no schedulable set"
        )
    rows = np.negative(catalog.incidence.T, dtype=float)
    out = solve_lp(LinearProgram(-np.ones(len(catalog)), rows, -d))
    if out.status != "optimal":
        raise SolverError(f"schedule LP ended {out.status}")
    eps = settle_cutoff(d)  # the greedy's, so demands in small units keep their shares
    # unlike -x, 0.0 - x gives no -0.0 for an empty program
    return {j: float(v) for j, v in enumerate(out.x) if v > eps}, 0.0 - out.value


def polytope_membership(demand, catalog: SchedulableSetCatalog) -> Membership:
    """Can the catalog's sets cover the demand within one time unit?

    Inside exactly when the optimal fractional schedule is at most 1 + 1e-9
    long; its shares (by catalog position) are then the certificate. A demand
    on a link no set covers is outside.
    """
    try:
        shares, length = _covering_shares(demand, catalog)
    except UncoverableDemandError:
        return Membership(inside=False)
    if length > 1.0 + _LENGTH_EPS:
        return Membership(inside=False)
    return Membership(inside=True, certificate=shares)


def optimal_fractional_schedule(
    demand, catalog: SchedulableSetCatalog
) -> tuple[FractionalSchedule, float]:
    """Shortest fractional schedule covering a per-link demand.

    Minimizes the total time share subject to covering every link's
    demand. Returns the schedule and its exact LP length; lengths above
    one mean the demand is outside the unit-time region.
    """
    shares, length = _covering_shares(demand, catalog)
    entries = tuple((catalog.hyperarc_sets[j], v) for j, v in shares.items())
    return FractionalSchedule(entries), length
