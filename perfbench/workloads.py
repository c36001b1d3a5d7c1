"""Workload definitions of the tsnplan benchmark.

Each workload is a set of `ExperimentConfig` fields. Fields not listed keep
their defaults: sizes 125-1500 B, harmonic periods 250-2000 ticks,
`k_routes=2`, `alpha=5`. The seed given on the command line draws the
streams, the update batches and the planner's random phases. The network is
part of the workload: Waxman topologies are always drawn with
`TOPOLOGY_SEED`, so a run's seed changes the traffic but not the graph it
crosses. This module imports nothing from tsnplan, so the driver can read
it without loading the program.
"""

TOPOLOGY_SEED = 0

WORKLOADS = {
    "offline-waxman64": {
        "config": {
            "topology": {"kind": "waxman", "n": 64},
            "initial_streams": 400,
            "iterations": 0,
            "cps": 50,
            "scheme": "randomized",
            "strategy": "traffic-volume",
        },
        "tiny": {"initial_streams": 40, "cps": 10},
        "stresses": "graph.insert (conflict-graph insertion) and peak memory",
    },
    "routing-waxman128": {
        "config": {
            "topology": {"kind": "waxman", "n": 128},
            "initial_streams": 300,
            "iterations": 0,
            "cps": 10,
            "scheme": "deterministic",
            "strategy": "avg-degree",
        },
        "tiny": {"initial_streams": 20},
        "stresses": "routing (candidate_routes)",
    },
    "dynamic-grid3x3": {
        "config": {
            "topology": {"kind": "grid", "rows": 3, "cols": 3},
            "initial_streams": 60,
            "iterations": 100,
            "add_per_iteration": 3,
            "del_per_iteration": 3,
            "cps": 20,
            "scheme": "randomized",
            "strategy": "page-rank",
        },
        "tiny": {"initial_streams": 20, "iterations": 12, "add_per_iteration": 3,
                 "del_per_iteration": 3, "cps": 8},
        "stresses": "removal flush, CSR builds, page-rank and both solves",
    },
}

SIZES = ("full", "tiny")


def config_fields(name: str, seed: int, size: str = "full") -> dict:
    """`ExperimentConfig` keyword arguments of one workload at one seed."""
    w = WORKLOADS[name]
    fields = dict(w["config"], seed=seed)
    if size == "tiny":
        fields.update(w["tiny"])
    return fields
