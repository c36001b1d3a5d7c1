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
"""

import argparse
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
    updates = metrics[1:]
    if updates:
        last = updates[-1]
        total = sorted(u.total_ms for u in updates)
        # nearest-rank 90th percentile
        p90 = total[max(0, -(-9 * len(total) // 10) - 1)]
        print(f"{len(updates)} updates of +{args.add}/-{args.delete}:")
        print(f"  rejected    {sum(u.rejected for u in updates)}")
        print(f"  graph       {last.vertices} vertices / {last.edges} edges after the last")
        print(f"  total       p50 {statistics.median(total):.0f} ms, p90 {p90:.0f} ms")
        for phase in ("routing", "expansion", "solving"):
            p50 = statistics.median(getattr(u, f"{phase}_ms") for u in updates)
            print(f"  {phase:<11} p50 {p50:.0f} ms")
    print(f"  validate    {len(validate_ms)} plans, {len(problems)} problems, "
          f"total {sum(validate_ms) / 1000:.1f} s, max {max(validate_ms):.0f} ms")
    print(f"  wall clock  {time.perf_counter() - t0:.1f} s")
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"  peak RSS    {peak:.0f} MiB")
    for p in problems[:10]:
        print(f"  problem     {p}")
    if problems:
        sys.exit(1)


if __name__ == "__main__":
    main()
