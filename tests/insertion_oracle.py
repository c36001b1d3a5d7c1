"""Reference insertion for the conflict-graph tests.

`LinearScanGraph` joins each queued vertex on its own, in vid order, by
scanning every interval stored on each of its links with
`periodic_overlap`. That is the per-vertex, per-link scan the graph used
before the indexed join: slow, but obviously right, which makes it the
oracle `ConflictGraph.join_queued` is checked against. It only inserts:
its buckets keep the intervals of removed streams.
"""

from __future__ import annotations

import numpy as np

from tsnplan.conflict_graph import ConflictGraph
from tsnplan.timing import periodic_overlap


class _Bucket:
    """Growable interval store for one directed link."""

    __slots__ = ("n", "vid", "start", "end", "period", "color")

    def __init__(self):
        self.n = 0
        cap = 16
        self.vid = np.empty(cap, dtype=np.int64)
        self.start = np.empty(cap, dtype=np.int64)
        self.end = np.empty(cap, dtype=np.int64)
        self.period = np.empty(cap, dtype=np.int64)
        self.color = np.empty(cap, dtype=np.int64)

    def append(self, vid: int, start: int, end: int, period: int, color: int):
        if self.n == len(self.vid):
            for name in self.__slots__[1:]:
                arr = getattr(self, name)
                grown = np.empty(2 * len(arr), dtype=np.int64)
                grown[: self.n] = arr[: self.n]
                setattr(self, name, grown)
        i = self.n
        self.vid[i] = vid
        self.start[i] = start
        self.end[i] = end
        self.period[i] = period
        self.color[i] = color
        self.n += 1

    def query(self, start: int, end: int, period: int, color: int) -> np.ndarray:
        """Vids of stored intervals of other colors whose periodic repetitions
        overlap [start, end) repeated with `period` (hypercycle-bounded)."""
        n = self.n
        hit = periodic_overlap(
            start, end, period, self.start[:n], self.end[:n], self.period[:n]
        )
        return self.vid[:n][hit & (self.color[:n] != color)]


class LinearScanGraph(ConflictGraph):
    def __init__(self):
        super().__init__()
        self._buckets: dict[tuple[str, str], _Bucket] = {}

    def join_queued(self) -> None:
        pending = []
        for vid in range(self._joined, len(self._configs)):
            cfg = self._configs[vid]
            code = self._color_code[cfg.stream.id]
            period, phase = cfg.stream.period, cfg.phase
            hits = []
            for link_key, start, end in cfg.schedule.entries:
                start, end = start + phase, end + phase
                bucket = self._buckets.get(link_key)
                if bucket is None:
                    bucket = self._buckets[link_key] = _Bucket()
                else:
                    hits.append(bucket.query(start, end, period, code))
                # the query skips this color: no self-hit on a later link
                bucket.append(vid, start, end, period, code)
            if hits:
                nbrs = np.unique(np.concatenate(hits))
            else:
                nbrs = np.empty(0, dtype=np.int64)
            pending.append(nbrs)
        if pending:
            first = self._joined
            counts = [len(nbrs) for nbrs in pending]
            later = np.repeat(np.arange(first, len(self._configs)), counts)
            self._lo = np.concatenate([self._lo, *pending])
            self._hi = np.concatenate([self._hi, later])
            self._joined = len(self._configs)
            self._csr = None
