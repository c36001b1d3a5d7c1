#!/usr/bin/env python3
"""Optional long-running large-scale experiment.

Attempts to place thousands of streams offline on a large Waxman network.
Defaults reproduce a heavyweight configuration (256 bridges, 9000 streams)
and can run for a long time; pass smaller values to taste, e.g.:

    python demos/large_scale.py --bridges 64 --streams 2000
"""

import argparse
import resource
import time

from tsnplan.harness import ExperimentConfig, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bridges", type=int, default=256)
    ap.add_argument("--streams", type=int, default=9000)
    ap.add_argument("--cps", type=int, default=50)
    ap.add_argument("--strategy", default="traffic-volume")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = ExperimentConfig(
        topology={"kind": "waxman", "n": args.bridges},
        initial_streams=args.streams,
        cps=args.cps,
        strategy=args.strategy,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    metrics, _ = run_experiment(cfg)
    m = metrics[0]
    print(f"{args.streams} streams on {args.bridges} bridges "
          f"({args.strategy}, cps={args.cps}):")
    print(f"  rejected    {m.rejected} ({m.rejected / args.streams:.2%})")
    print(f"  graph       {m.vertices} vertices / {m.edges} edges")
    print(f"  routing     {m.routing_ms / 1000:.1f} s")
    print(f"  expansion   {m.expansion_ms / 1000:.1f} s")
    print(f"  solving     {m.solving_ms / 1000:.1f} s")
    print(f"  wall clock  {time.perf_counter() - t0:.1f} s")
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"  peak RSS    {peak:.0f} MiB")


if __name__ == "__main__":
    main()
