"""Reference forms of the pairwise conflict rule for the timing and
conflict-graph tests.

`frames_conflict` asks whether two occupancy schedules conflict, one pair
at a time, with `tsnplan.timing.overlap_modulo`: the per-pair form of the
rule the join applies to many intervals at once. `brute_force_conflict`
shares no code with either: it marks every occupied link-tick over the
hypercycle, which makes it the independent oracle both are checked against.
"""

from __future__ import annotations

import math

import numpy as np

from tsnplan.timing import ORACLE_BOUND, OccupancySchedule, OracleBoundExceeded, overlap_modulo


def frames_conflict(
    a: OccupancySchedule, period_a: int, b: OccupancySchedule, period_b: int
) -> bool:
    """True iff any frame repetitions of the two schedules overlap on a
    shared directed link."""
    pairs = [
        (sa, ea, sb, eb)
        for key_a, sa, ea in a.entries
        for key_b, sb, eb in b.entries
        if key_a == key_b
    ]
    if not pairs:
        return False
    sa, ea, sb, eb = np.array(pairs, dtype=np.int64).T
    return bool(overlap_modulo(sa, ea, sb, eb, np.gcd(period_a, period_b)).any())


def brute_force_conflict(
    a: OccupancySchedule,
    period_a: int,
    b: OccupancySchedule,
    period_b: int,
) -> bool:
    """Tick-simulation oracle: mark every occupied link-tick of both schedules
    over the hypercycle and look for a double booking."""
    h = math.lcm(period_a, period_b)
    if h > ORACLE_BOUND:
        raise OracleBoundExceeded(
            f"hypercycle {h} exceeds oracle bound {ORACLE_BOUND}"
        )
    maps: dict[tuple[str, str], bytearray] = {}
    for key, s, e in a.entries:
        bm = maps.setdefault(key, bytearray(h))
        for k in range(h // period_a):
            off = k * period_a
            for t in range(s + off, e + off):
                bm[t % h] = 1
    for key, s, e in b.entries:
        bm = maps.get(key)
        if bm is None:
            continue
        for k in range(h // period_b):
            off = k * period_b
            for t in range(s + off, e + off):
                if bm[t % h]:
                    return True
    return False
