"""Containment control for linear multi-agent systems with bounded-input leaders.

Pipeline: describe the network (graph), synthesize the shared feedback gains
(synthesis), pick a controller law (control), integrate the closed loop (sim),
or drive everything from a scenario file (cli).
"""

from .control import ControllerConfig, LeaderInputSpec, LinearSystem, Sinusoid
from .graph import (
    AssumptionViolated,
    LaplacianPartition,
    Topology,
    build_topology,
    check_assumption1,
    partition_laplacian,
)
from .sim import Metrics, Scenario, Trajectory, compute_metrics, integrate
from .synthesis import BoundReport, GainSet, compute_bound_report, synthesize

__version__ = "0.1.0"

__all__ = [
    "ControllerConfig",
    "LeaderInputSpec",
    "LinearSystem",
    "Sinusoid",
    "AssumptionViolated",
    "LaplacianPartition",
    "Topology",
    "build_topology",
    "check_assumption1",
    "partition_laplacian",
    "Metrics",
    "Scenario",
    "Trajectory",
    "compute_metrics",
    "integrate",
    "BoundReport",
    "GainSet",
    "compute_bound_report",
    "synthesize",
    "__version__",
]
