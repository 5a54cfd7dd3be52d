"""Minimal unimodal decompositions of edge-linear densities on metric trees."""

from .density import (
    EdgeLinearDensity,
    ModeWitness,
    NotUnimodal,
    is_unimodal,
    support_is_empty,
)
from .forced import Forced, PruneReport, Unimodal, find_forced_vertex, prune_insignificant
from .greedy import Component, Decomposition, TraceEvent, decompose, ucat
from .instances import gen_instance
from .interval import interval_ucat
from .sweep import Subdivision, SweepResult, sweep
from .tree import MetricTree, VertexId
from .verify import (
    CheckReport,
    ComponentCheck,
    FeasibilityCertificate,
    check_decomposition,
    feasible_avoiding_vertex,
    feasible_with_modes,
    ucat_oracle,
)

__version__ = "0.1.0"
