"""Machine-speed reference for the benchmark's timings.

The benchmark runs on a small virtual machine whose speed drifts with the
load of other tenants: the same episode can take 2.3 s in one minute and
4.5 s a few minutes later, in CPU time as well as in wall time. A
`SpeedProbe` measures that speed while the program runs. Every
`INTERVAL_S` it interrupts the measuring process with SIGALRM and, in the
handler, runs one reference chunk: Dijkstra from one source over a fixed
random graph and a sum of fixed `Fraction`s, the two kinds of interpreter
work that dominate the planner (routing and exact timing arithmetic). It is
pure Python and independent of tsnplan, so a change to the program cannot
change it. The chunk's duration is a sample of the machine's
speed at that moment.

Time spent in the handler is summed in `stolen`, and the caller subtracts
it from every interval it times. `scale(samples)` turns the chunk samples
taken during a measurement into the factor that converts its time to the
time it would take at the nominal speed, where one chunk takes
`NOMINAL_CHUNK_S`. The factor is the nominal chunk time over the mean
chunk time, so a measurement taken while the machine ran at half speed is
halved. The mean, unlike the median, follows short slow spells, which the
program's time includes in full; the slowest and fastest tenth of the
chunks are left out of it, so that a chunk hit by a page fault or a garbage
collection does not weigh in.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time
from fractions import Fraction

#: a reference chunk's duration at nominal speed (about its mean on a
#: 2-vCPU Xeon VM with CPython 3.11)
NOMINAL_CHUNK_S = 0.001
#: time between two reference chunks
INTERVAL_S = 0.01

_NODES = 250
_rng = random.Random(0)
_ADJ = [[(_rng.randrange(_NODES), _rng.randint(1, 100)) for _ in range(6)]
        for _ in range(_NODES)]
_FRACTIONS = [Fraction(_rng.randint(1, 1000), _rng.choice((250, 500, 1000, 2000)))
              for _ in range(250)]


def reference_chunk() -> tuple[int, Fraction]:
    """A fixed amount of interpreter work: shortest paths from node 0 and
    an exact sum."""
    total = Fraction(0)
    for f in _FRACTIONS:
        total += f
    dist = [1 << 60] * _NODES
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _ADJ[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return sum(dist), total


def scale(samples: list[float]) -> float:
    """Factor from measured time to time at nominal speed."""
    xs = sorted(samples)
    cut = len(xs) // 10
    return NOMINAL_CHUNK_S / statistics.fmean(xs[cut:len(xs) - cut])


class SpeedProbe:
    """Samples the machine's speed with reference chunks during a `with`."""

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0

    def sample(self) -> None:
        """Run and time one reference chunk."""
        t0 = time.perf_counter()
        reference_chunk()
        d = time.perf_counter() - t0
        self.samples.append(d)
        self.stolen += d

    def scale_since(self, first: int) -> float:
        """`scale` of the chunks from sample `first` on; with none yet, as
        in a measurement shorter than one interval, one is taken now."""
        if len(self.samples) == first:
            self.sample()
        return scale(self.samples[first:])

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
