"""No-wait frame propagation timing and the pairwise conflict predicate.

Occupancy intervals are half-open [start, end): back-to-back transmissions on
one link are legal and do not conflict. Transmission times round up to whole
macro ticks so occupancy is never underestimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Network, Stream
from .routing import Route

#: tick bound for the brute-force oracles
ORACLE_BOUND = 10**6


class OracleBoundExceeded(Exception):
    pass


@dataclass(frozen=True)
class OccupancySchedule:
    """Per-link occupancy of one (stream, route, phase) within the first period."""

    entries: tuple[tuple[tuple[str, str], int, int], ...]  # (link key, start, end)
    arrival: int  # tick the frame is fully delivered at dst


def transmission_time(size: int, rate: int) -> int:
    """Ticks to push `size` bytes onto a link of `rate` bits/tick, rounded up."""
    if size <= 0 or rate <= 0:
        raise ValueError("size and rate must be > 0")
    return -(-size * 8 // rate)


def link_occupancy(
    net: Network, stream: Stream, route: Route, phase: int
) -> OccupancySchedule:
    """No-wait recurrence: each hop starts as soon as the frame is received
    and processed; only interior bridges add processing delay."""
    if phase < 0:
        raise ValueError("phase must be >= 0")
    nodes, size = net.nodes, stream.size
    entries = []
    t = phase
    last = len(route.links) - 1
    for i, link in enumerate(route.links):
        src, dst, rate = link.src, link.dst, link.rate
        if size <= 0 or rate <= 0:
            raise ValueError("size and rate must be > 0")
        end = t - (-size * 8 // rate)  # transmission_time, inline
        entries.append(((src, dst), t, end))
        t = end + link.propagation_delay
        if i < last:
            t += nodes[dst].processing_delay
    return OccupancySchedule(tuple(entries), t)


def periodic_overlap(sa, ea, pa, sb, eb, pb):
    """Do the periodic repetitions of [sa,ea) mod pa and [sb,eb) mod pb
    overlap? Arguments are integers or int64 arrays and broadcast; the
    result is a boolean array.

    Repetitions ka of a and kb of b overlap iff sa - eb < m < ea - sb for
    m = kb*pb - ka*pa, and these m are exactly the multiples of
    g = gcd(pa, pb), for intervals of any start and length.
    """
    return overlap_modulo(sa, ea, sb, eb, np.gcd(pa, pb))


def overlap_modulo(sa, ea, sb, eb, g):
    """`periodic_overlap` for a period pair whose g = gcd(pa, pb) is already
    known, so that many intervals of one pair share it: is some multiple of
    g in (sa - eb, ea - sb)?"""
    return sa - eb < (ea - sb - 1) // g * g


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
    return bool(periodic_overlap(sa, ea, period_a, sb, eb, period_b).any())


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
