#!/usr/bin/env python3
"""Dynamic update walk-through.

Starts from an admitted set of streams on a grid network, then applies a
series of update batches (streams joining and leaving). For every batch
the planner makes a defensive plan (old streams keep their schedule). When
that plan rejects a newcomer, it also makes an offensive re-plan (old
streams may be reconfigured) and keeps the one rejecting fewer newcomers,
ties going to the defensive plan. The demo exits with status 1 if the
oracle `validate_plan` finds a problem in any batch's plan.

Run:  python demos/dynamic_updates.py
"""

import sys

from tsnplan import ExpansionParams, Planner, validate_plan
from tsnplan.harness import gen_grid, gen_streams
from tsnplan.model import StreamBatch


def main():
    net = gen_grid(3, 3)
    planner = Planner(net, ExpansionParams(cps=30, strategy="traffic-volume",
                                           rng_seed=1))

    initial = gen_streams(net, 40, [125, 500, 1500], [250, 500, 1000, 2000],
                          seed=1)
    planner.iterate(StreamBatch(0, add=initial))
    print(f"iteration 0: {len(planner.state.admitted)} streams admitted")

    invalid = bool(validate_plan(net, planner.state.plan))
    next_id = len(initial)
    for i in range(1, 6):
        leaving = sorted(planner.state.admitted)[: 4]
        joining = gen_streams(net, 6, [125, 500, 1500], [250, 500, 1000, 2000],
                              seed=100 + i, start_index=next_id)
        next_id += len(joining)

        m = planner.iterate(StreamBatch(i, add=joining, delete=leaving))
        problems = validate_plan(net, planner.state.plan)
        invalid |= bool(problems)
        print(
            f"iteration {i}: -{len(leaving)} +{len(joining)} streams, "
            f"{m.rejected} rejected, graph {m.vertices}v/{m.edges}e, "
            f"{m.total_ms:.0f} ms, plan {'OK' if not problems else 'INVALID'}"
        )

    print(f"\nfinal admitted set: {len(planner.state.admitted)} streams")
    if invalid:
        sys.exit(1)


if __name__ == "__main__":
    main()
