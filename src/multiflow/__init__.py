"""Maximum multiflow and fractional scheduling for multihop wireless networks.

The package models a wireless network under the protocol interference
model, enumerates conflict-free schedulable sets of links or broadcast
hyperarcs, and solves the joint routing and scheduling problem as a
linear program.  A greedy coding-first scheduler produces fractional
schedules with a provable length guarantee when exact enumeration is
out of reach.
"""

from .cfs import cfs_length_bound, cfs_schedule, coding_first_ordering
from .conflict import (
    ConflictGraph,
    SchedulableSetCatalog,
    build_conflict_graph,
    closed_neighborhoods,
    enumerate_schedulable_sets,
)
from .errors import (
    EnumerationCapError,
    SolverError,
    UncoverableDemandError,
    ValidationError,
)
from .instance import load_demand, load_instance
from .mmf import (
    Commodity,
    MmfSolution,
    optimal_fractional_schedule,
    polytope_membership,
    solve_mmf,
)
from .model import Network, Node, build_network
from .schedule import FractionalSchedule

__version__ = "0.1.0"

__all__ = [
    # model and loading
    "Commodity",
    "Node",
    "Network",
    "build_network",
    "load_instance",
    "load_demand",
    # conflict graphs
    "build_conflict_graph",
    "ConflictGraph",
    "enumerate_schedulable_sets",
    "SchedulableSetCatalog",
    "closed_neighborhoods",
    # exact LP answers
    "solve_mmf",
    "MmfSolution",
    "optimal_fractional_schedule",
    "polytope_membership",
    # greedy scheduler
    "FractionalSchedule",
    "coding_first_ordering",
    "cfs_schedule",
    "cfs_length_bound",
    # errors
    "ValidationError",
    "EnumerationCapError",
    "SolverError",
    "UncoverableDemandError",
]
