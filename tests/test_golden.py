"""Golden-plan check: small seeded scenarios must keep producing the same
plan and the same non-timing metrics, iteration by iteration.

A refactor that is meant to preserve behaviour must leave these values
alone. Change them only together with a `CHANGES.md` line that says why the
plans changed.
"""

import hashlib
import json

import pytest

from tsnplan.harness import (
    ExperimentConfig,
    build_scenario,
    build_topology,
    plan_to_dict,
    run_experiment,
)

SCENARIOS = {
    # removal-heavy dynamic run: 10 deletions and 8 additions per batch, with
    # rejections in batch 0 whose later deletions the harness must drop
    "ring4-dynamic-page-rank": dict(
        topology={"kind": "ring", "n": 4}, sizes=[1000, 1500], periods=[250, 500],
        initial_streams=40, iterations=8, add_per_iteration=8, del_per_iteration=10,
        cps=6, scheme="randomized", strategy="page-rank", seed=1),
    "ring6-deterministic-avg-degree": dict(
        topology={"kind": "ring", "n": 6}, initial_streams=24, iterations=2,
        add_per_iteration=5, del_per_iteration=3, cps=6,
        scheme="deterministic", strategy="avg-degree", seed=2),
    "waxman16-offline-traffic-volume": dict(
        topology={"kind": "waxman", "n": 16}, initial_streams=40, cps=10,
        scheme="randomized", strategy="traffic-volume", seed=7),
}

#: scenario -> (SHA-256 of the final plan_to_dict, [(rejected, vertices,
#: edges) per iteration])
GOLDEN = {
    "ring4-dynamic-page-rank": (
        "4e21349486c3ac51ed2ec93a0e42688c9909159d3c8b5547218a93cacf042430",
        [(3, 240, 1342), (0, 210, 1065), (0, 204, 1019), (0, 198, 979),
         (0, 186, 841), (0, 180, 701), (0, 168, 616), (0, 156, 519),
         (0, 144, 462)],
    ),
    "ring6-deterministic-avg-degree": (
        "324c2e6fdf218994e3618697bbe20fafc41bdeb08aa5365c27aed51d77b4c1d4",
        [(10, 144, 1407), (4, 96, 560), (0, 102, 570)],
    ),
    "waxman16-offline-traffic-volume": (
        "5118d8042581f9b29dc1b406f9e8e20115c03175709b9dfc7e5c12c1a7fb79e7",
        [(0, 400, 429)],
    ),
}


def plan_sha256(plan) -> str:
    return hashlib.sha256(
        json.dumps(plan_to_dict(plan), sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_plan_and_metrics(name):
    metrics, planner = run_experiment(ExperimentConfig(**SCENARIOS[name]))
    sha, per_iteration = GOLDEN[name]
    assert [(m.rejected, m.vertices, m.edges) for m in metrics] == per_iteration
    assert plan_sha256(planner.state.plan) == sha


def test_run_experiment_leaves_scenario_batches_unchanged():
    cfg = ExperimentConfig(**SCENARIOS["ring4-dynamic-page-rank"])
    net = build_topology(cfg)
    batches = build_scenario(cfg, net)
    before = [list(b.delete) for b in batches]
    # batches 2, 3 and 5 delete streams rejected in batch 0, so the harness
    # has deletions to drop; it must drop them from a copy
    run_experiment(cfg, net, batches)
    assert [b.delete for b in batches] == before
