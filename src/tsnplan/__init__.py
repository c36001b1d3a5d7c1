"""Conflict-graph based no-wait traffic planning for time-sensitive networks."""

from .conflict_graph import Configuration, ConflictGraph
from .expansion import ExpansionParams, expand
from .harness import ExperimentConfig, run_experiment
from .model import Network, Stream, StreamBatch, traffic_volume, hypercycle
from .routing import Route, candidate_routes
from .solver import Planner, TrafficPlan, gfh_solve, validate_plan
from .timing import link_occupancy, transmission_time

__all__ = [
    "Configuration",
    "ConflictGraph",
    "ExpansionParams",
    "ExperimentConfig",
    "Network",
    "Planner",
    "Route",
    "Stream",
    "StreamBatch",
    "TrafficPlan",
    "candidate_routes",
    "expand",
    "gfh_solve",
    "hypercycle",
    "link_occupancy",
    "run_experiment",
    "traffic_volume",
    "transmission_time",
    "validate_plan",
]
