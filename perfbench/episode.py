"""One benchmark process: set-up, then planning episodes until time is up.

`perfbench/run.py` starts this file in a child process with
`PYTHONPATH=src` and single-threaded BLAS, as

    python3 perfbench/episode.py setup   --workload W --seed N [--size tiny]
    python3 perfbench/episode.py measure --workload W --seed N --seconds S
                                         --trace 0|1 [--size tiny]

and reads the one JSON object it prints. `setup` times set-up only. An
episode plans every batch of the workload on a fresh `Planner` and re-checks
each plan with `validate_plan`, as `run_experiment` does, but writes no
files. With `--trace 0`, set-up and episodes run under a `SpeedProbe`
(perfbench/speed.py), and their times are reported at the probe's nominal
machine speed. With `--trace 1`, untraced and traced episodes alternate,
without the probe, so the two can be compared for behaviour and for
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
from speed import SpeedProbe  # noqa: E402
from workloads import SIZES, TOPOLOGY_SEED, WORKLOADS, config_fields  # noqa: E402


def percentile(xs: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    xs = sorted(xs)
    k = (len(xs) - 1) * q
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def setup(workload: str, seed: int, size: str):
    """Import tsnplan, generate the workload and build a ready Planner.

    Returns (seconds taken, config, network, batches, planner).
    """
    t0 = time.perf_counter()
    import tsnplan
    from tsnplan.harness import ExperimentConfig, build_scenario, build_topology
    from tsnplan.solver import Planner

    src = (ROOT / "src").resolve()
    if not Path(tsnplan.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"tsnplan was imported from {tsnplan.__file__}, not from {src}")
    cfg = ExperimentConfig(**config_fields(workload, seed, size))
    net = build_topology(dataclasses.replace(cfg, seed=TOPOLOGY_SEED))
    batches = build_scenario(cfg, net)
    planner = Planner(net, cfg.expansion_params(), k_routes=cfg.k_routes)
    return time.perf_counter() - t0, cfg, net, batches, planner


def probed_setup(workload: str, seed: int, size: str):
    """`setup` under a `SpeedProbe`: the same tuple, with the time taken
    at nominal machine speed, followed by the time as measured."""
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        _, *rest = setup(workload, seed, size)
        raw = time.perf_counter() - t0 - probe.stolen
    return (raw * probe.scale_since(0), *rest, raw)


def run_episode(planner, net, batches, tracer=None, probe=None) -> dict:
    """Plan every batch in order; time each `iterate` + `validate_plan`.

    Deletions of streams the planner rejected earlier are dropped, as in
    `run_experiment`. The scenario's batches are not modified. With a
    running `probe`, the time of its reference chunks is left out of every
    timing, and `wall_s` and the update latencies are scaled to nominal
    speed by the chunks taken during this episode; `raw_wall_s` is the
    wall time as measured.
    """
    from tsnplan import solver
    from tsnplan.harness import plan_to_dict
    from tsnplan.model import StreamBatch

    def stolen() -> float:
        return probe.stolen if probe is not None else 0.0

    first_sample = len(probe.samples) if probe is not None else 0
    latencies = []
    problems: list[str] = []
    invalid = rejected = offered = 0
    t0 = time.perf_counter()
    s0 = stolen()
    for b in batches:
        if tracer is not None:
            tracer.iteration = b.iteration
        tb = time.perf_counter()
        sb = stolen()
        batch = StreamBatch(
            b.iteration, add=b.add,
            delete=[d for d in b.delete if d in planner.state.admitted],
        )
        m = planner.iterate(batch)
        found = solver.validate_plan(net, planner.state.plan)
        latencies.append(time.perf_counter() - tb - (stolen() - sb))
        if set(planner.state.plan.assignments) != set(planner.state.admitted):
            found = found + ["plan does not cover exactly the admitted streams"]
        if found:
            invalid += 1
            problems.append(f"iteration {b.iteration}: {found[:3]}")
        rejected += m.rejected
        offered += len(b.add)
    wall = time.perf_counter() - t0 - (stolen() - s0)
    raw_wall = wall
    if probe is not None:
        factor = probe.scale_since(first_sample)
        wall *= factor
        latencies = [t * factor for t in latencies]

    plan_json = json.dumps(plan_to_dict(planner.state.plan), sort_keys=True)
    updates = latencies[1:] or latencies  # an offline scenario has one batch
    return {
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "update_ms_p50": percentile(updates, 0.5) * 1000,
        "update_ms_p90": percentile(updates, 0.9) * 1000,
        "update_samples": len(updates),
        "invalid_plans": invalid,
        "problems": problems[:5],
        "counts": {
            "batches": len(batches),
            "offered": offered,
            "rejected": rejected,
            "vertices": m.vertices,
            "edges": m.edges,
            "slots": planner.graph.slot_count,
            "plan_sha256": hashlib.sha256(plan_json.encode()).hexdigest(),
        },
    }


def layer_metrics(tracer, ep: dict) -> tuple[dict, list[str], dict]:
    """Per-layer metrics of one traced episode, the consistency errors that
    show a wrapped layer was bypassed or miscounted, and each span name's
    self time as a share of the episode's wall time."""
    totals = tracer.layer_totals()

    def get(name, key="ms"):
        return totals.get(name, {}).get(key, 0)

    c = ep["counts"]
    inserts = get("graph.insert", "calls")
    m = {
        "routing.calls": get("routing", "calls"),
        "routing.ms": get("routing"),
        "timing.occupancy.calls": get("timing.occupancy", "calls"),
        "timing.occupancy.ms": get("timing.occupancy"),
        "graph.insert.calls": inserts,
        "graph.insert.ms": get("graph.insert"),
        "graph.insert.us_per_vertex": get("graph.insert") * 1000 / inserts if inserts else 0.0,
        "graph.flush.ms": get("graph.flush"),
        "graph.csr.calls": get("graph.csr", "calls"),
        "graph.csr.ms": get("graph.csr"),
        "graph.vertices": c["vertices"],
        "graph.edges": c["edges"],
        "graph.slots": c["slots"],
        "graph.live_slot_frac": c["vertices"] / c["slots"] if c["slots"] else 0.0,
        "expansion.ms": get("expansion"),
        "expansion.enumerate.ms": get("expansion.enumerate"),
        "expansion.budget_metric.ms": get("expansion.budget_metric"),
        "expansion.configs_added": tracer.counts["expansion.configs_added"],
        "expansion.surplus_frac": tracer.surplus_frac(),
        "solver.defensive.ms": get("solver.defensive"),
        "solver.offensive.ms": get("solver.offensive"),
        "solver.offensive_wins": tracer.counts["solver.offensive_wins"],
        "solver.offensive_infeasible": tracer.counts["solver.offensive_infeasible"],
        "solver.reconfigured": tracer.counts["solver.reconfigured"],
        "solver.wasted_frac": tracer.wasted_frac(),
        "validate.ms": get("validate"),
        "validate.intervals": tracer.counts["validate.intervals"],
        "trace.coverage_frac": sum(t["top_ms"] for t in totals.values()) / (ep["wall_s"] * 1000),
    }
    checks = [
        ("routing.calls", m["routing.calls"], c["offered"]),
        ("graph.insert.calls", inserts, c["slots"]),
        ("expansion.configs_added", m["expansion.configs_added"], c["slots"]),
    ] + [
        (f"{span}.calls", get(span, "calls"), c["batches"])
        for span in ("expansion", "solver.defensive", "solver.offensive", "validate")
    ]
    errors = [f"traced {k} = {got}, expected {want}" for k, got, want in checks if got != want]
    shares = {name: t["self_ms"] / (ep["wall_s"] * 1000) for name, t in totals.items()}
    return m, errors, shares


def measure(args) -> dict:
    if args.trace:
        setup_s, cfg, net, batches, planner = setup(args.workload, args.seed, args.size)
        raw_setup_s = setup_s
    else:
        setup_s, cfg, net, batches, planner, raw_setup_s = probed_setup(
            args.workload, args.seed, args.size)
    from tsnplan.solver import Planner

    tracer = probe = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    else:
        probe = SpeedProbe()
    episodes = []
    errors: list[str] = []
    deadline = time.perf_counter() + args.seconds
    with probe if probe is not None else contextlib.nullcontext():
        while True:
            # untraced and traced episodes in ABBA order, so slow drift of the
            # machine's speed cancels out of the tracing overhead
            traced = tracer is not None and len(episodes) % 4 in (1, 2)
            if planner is None:
                planner = Planner(net, cfg.expansion_params(), k_routes=cfg.k_routes)
            if traced:
                tracer.reset()
                with tracer.installed():
                    ep = run_episode(planner, net, batches, tracer)
                ep["layers"], errs, ep["self_share"] = layer_metrics(tracer, ep)
                errors.extend(errs)
            else:
                ep = run_episode(planner, net, batches, probe=probe)
            ep["traced"] = traced
            episodes.append(ep)
            planner = None
            gc.collect()
            if time.perf_counter() >= deadline and len(episodes) >= (1 if tracer is None else 2):
                break

    if any(ep["counts"] != episodes[0]["counts"] for ep in episodes):
        errors.append("episodes of one seed differ in counts: "
                      + json.dumps([ep["counts"] for ep in episodes]))
    spans_file = None
    if tracer is not None:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_file = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_file)
    return {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "config": dataclasses.asdict(cfg),
        "episodes": episodes,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.mode == "setup":
        timed = probed_setup(args.workload, args.seed, args.size)
        out = {"setup_s": timed[0], "raw_setup_s": timed[-1]}
    else:
        out = measure(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
