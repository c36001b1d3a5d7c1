#!/usr/bin/env python3
"""Offline planning walk-through.

Builds a small ring network, generates a batch of periodic streams, runs a
single planning iteration, and prints the resulting schedule: for every
admitted stream the chosen route, phase, and per-link occupancy intervals.
It exits with status 1 if the oracle `validate_plan` finds a problem.

Run:  python demos/offline_planning.py
"""

import sys

from tsnplan import ExpansionParams, Planner, validate_plan
from tsnplan.harness import gen_ring, gen_streams
from tsnplan.model import StreamBatch


def main():
    net = gen_ring(6)
    print(f"topology: ring of {len(net.bridges())} bridges, "
          f"{len(net.links)} directed links")

    streams = gen_streams(
        net,
        count=12,
        size_set=[125, 500, 1500],
        period_set=[250, 500, 1000],
        seed=7,
    )
    print(f"offering {len(streams)} streams\n")

    planner = Planner(net, ExpansionParams(cps=20, scheme="randomized",
                                           strategy="homogeneous", rng_seed=7))
    metrics = planner.iterate(StreamBatch(0, add=streams))

    print(f"conflict graph: {metrics.vertices} vertices, {metrics.edges} edges")
    print(f"rejected: {metrics.rejected}")
    print(f"expansion {metrics.expansion_ms:.1f} ms, "
          f"solving {metrics.solving_ms:.1f} ms\n")

    for sid, cfg in sorted(planner.state.plan.assignments.items()):
        hops = " -> ".join(cfg.route.nodes)
        print(f"{sid}: phase {cfg.phase:4d}  period {cfg.stream.period:5d}  {hops}")
        # the schedule is the route's phase-0 occupancy, shifted by the phase
        for (a, b), s, e in cfg.schedule.entries:
            print(f"     {a} -> {b}: busy [{s + cfg.phase}, {e + cfg.phase})")

    problems = validate_plan(net, planner.state.plan)
    print(f"\nindependent validation: {'OK' if not problems else problems}")
    if problems:
        sys.exit(1)


if __name__ == "__main__":
    main()
