"""No-wait frame propagation timing and the periodic-overlap rule.

Occupancy intervals are half-open [start, end): back-to-back transmissions on
one link are legal and do not conflict. Transmission times round up to whole
macro ticks so occupancy is never underestimated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Network, Stream
from .routing import Route

#: the most intervals `validate_plan` builds on one link, and the longest
#: hypercycle the tests' tick-simulation oracle simulates
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


def overlap_modulo(sa, ea, sb, eb, g):
    """Do the periodic repetitions of [sa,ea) mod pa and [sb,eb) mod pb
    overlap, for g = gcd(pa, pb)? Arguments are integers or int64 arrays
    and broadcast, so that many intervals of one period pair share g; the
    result is a boolean array.

    Repetitions ka of a and kb of b overlap iff sa - eb < m < ea - sb for
    m = kb*pb - ka*pa, and these m are exactly the multiples of g, for
    intervals of any start and length: so the test is whether some
    multiple of g lies in (sa - eb, ea - sb).
    """
    return sa - eb < (ea - sb - 1) // g * g
