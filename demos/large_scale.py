#!/usr/bin/env python3
"""Optional long-running large-scale experiment.

Attempts to place thousands of streams offline on a large Waxman network.
Defaults reproduce a heavyweight configuration (256 bridges, 9000 streams)
and can run for a long time; pass smaller values to taste, e.g.:

    python demos/large_scale.py --bridges 64 --streams 2000

With `--iterations N` the offline batch is followed by N update batches,
each adding `--add` new streams and deleting `--delete` admitted ones; the
per-update latency is then printed as well:

    python demos/large_scale.py --bridges 64 --streams 2000 --iterations 10

Every batch's plan is checked with the oracle `validate_plan`, timed apart
from the phases; the demo exits with status 1 if any plan has a problem.

With `--json` the last line printed is one JSON object: the offline
batch's `rejected`, `vertices`, `edges`, `routing_s`, `expansion_s` and
`solving_s`; `validate_s` over all plans, `wall_s` and `peak_rss_mib`; and
with updates the p50 and p90 of their `total_ms`, `solving_ms` and
`routing_ms`, and of `validate_ms`, the oracle's time on each update's plan
(`total_ms` leaves it out):

    python demos/large_scale.py --bridges 64 --streams 2000 --iterations 10 --json
"""

import argparse
import json
import resource
import statistics
import sys
import time

from tsnplan.harness import ExperimentConfig, build_scenario, build_topology
from tsnplan.model import StreamBatch
from tsnplan.solver import Planner, validate_plan


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bridges", type=int, default=256)
    ap.add_argument("--streams", type=int, default=9000)
    ap.add_argument("--cps", type=int, default=50)
    ap.add_argument("--strategy", default="traffic-volume")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--iterations", type=int, default=0,
                    help="update batches after the offline batch")
    ap.add_argument("--add", type=int, default=20, help="new streams per update")
    ap.add_argument("--delete", type=int, default=20, help="deleted streams per update")
    ap.add_argument("--json", action="store_true",
                    help="end with one line of the timings as a JSON object")
    args = ap.parse_args()

    cfg = ExperimentConfig(
        topology={"kind": "waxman", "n": args.bridges},
        initial_streams=args.streams,
        iterations=args.iterations,
        add_per_iteration=args.add,
        del_per_iteration=args.delete,
        cps=args.cps,
        strategy=args.strategy,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    net = build_topology(cfg)
    planner = Planner(net, cfg.expansion_params(), k_routes=cfg.k_routes)
    metrics, validate_ms, problems = [], [], []
    for batch in build_scenario(cfg, net):
        # the scenario deletes streams as if none was rejected
        delete = [d for d in batch.delete if d in planner.state.admitted]
        metrics.append(planner.iterate(StreamBatch(batch.iteration, batch.add, delete)))
        t = time.perf_counter()
        found = validate_plan(net, planner.state.plan)
        validate_ms.append((time.perf_counter() - t) * 1000)
        problems += [f"batch {batch.iteration}: {p}" for p in found]
    m = metrics[0]
    print(f"{args.streams} streams on {args.bridges} bridges "
          f"({args.strategy}, cps={args.cps}):")
    print(f"  rejected    {m.rejected} ({m.rejected / args.streams:.2%})")
    print(f"  graph       {m.vertices} vertices / {m.edges} edges")
    print(f"  routing     {m.routing_ms / 1000:.1f} s")
    print(f"  expansion   {m.expansion_ms / 1000:.1f} s")
    print(f"  solving     {m.solving_ms / 1000:.1f} s")
    result = {"rejected": m.rejected, "vertices": m.vertices, "edges": m.edges}
    for phase in ("routing", "expansion", "solving"):
        result[f"{phase}_s"] = getattr(m, f"{phase}_ms") / 1000
    updates = metrics[1:]
    if updates:
        last = updates[-1]
        per_update = {name: [getattr(u, f"{name}_ms") for u in updates]
                      for name in ("total", "solving", "routing")}
        per_update["validate"] = validate_ms[1:]
        for name, ms in per_update.items():
            ms = sorted(ms)
            result[f"{name}_ms_p50"] = statistics.median(ms)
            # nearest-rank 90th percentile
            result[f"{name}_ms_p90"] = ms[max(0, -(-9 * len(ms) // 10) - 1)]
        print(f"{len(updates)} updates of +{args.add}/-{args.delete}:")
        print(f"  rejected    {sum(u.rejected for u in updates)}")
        print(f"  graph       {last.vertices} vertices / {last.edges} edges after the last")
        print(f"  total       p50 {result['total_ms_p50']:.0f} ms, "
              f"p90 {result['total_ms_p90']:.0f} ms")
        for phase in ("routing", "expansion", "solving"):
            p50 = statistics.median(getattr(u, f"{phase}_ms") for u in updates)
            print(f"  {phase:<11} p50 {p50:.0f} ms")
    result["validate_s"] = sum(validate_ms) / 1000
    print(f"  validate    {len(validate_ms)} plans, {len(problems)} problems, "
          f"total {result['validate_s']:.1f} s, max {max(validate_ms):.0f} ms")
    result["wall_s"] = time.perf_counter() - t0
    print(f"  wall clock  {result['wall_s']:.1f} s")
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"  peak RSS    {result['peak_rss_mib']:.0f} MiB")
    for p in problems[:10]:
        print(f"  problem     {p}")
    if args.json:
        print(json.dumps({k: round(v, 4) for k, v in result.items()}))
    if problems:
        sys.exit(1)


if __name__ == "__main__":
    main()
