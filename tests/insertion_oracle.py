"""Reference insertion for the conflict-graph tests.

`linear_scan_csr` joins each vertex of a graph on its own, in vid order, by
scanning every interval stored on each of its links with
`periodic_overlap`. That is the per-vertex, per-link scan the graph used
before the indexed join: slow, but obviously right, which makes it the
oracle `ConflictGraph.join_queued` is checked against. It reads the graph
only through `vertex_count` and `config`.
"""

from __future__ import annotations

import numpy as np

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
        overlap [start, end) repeated with `period`."""
        n = self.n
        hit = periodic_overlap(
            start, end, period, self.start[:n], self.end[:n], self.period[:n]
        )
        return self.vid[:n][hit & (self.color[:n] != color)]


def linear_scan_csr(g) -> tuple[np.ndarray, np.ndarray]:
    """The graph's adjacency as (indptr, indices), each row ascending, from
    a per-vertex linear scan of its configurations' intervals."""
    buckets: dict[tuple[str, str], _Bucket] = {}
    color_code: dict[str, int] = {}
    rows: list[list[int]] = []
    for vid in range(g.vertex_count):
        cfg = g.config(vid)
        code = color_code.setdefault(cfg.stream.id, len(color_code))
        period, phase = cfg.stream.period, cfg.phase
        hits = []
        for link_key, start, end in cfg.schedule.entries:
            start, end = start + phase, end + phase
            bucket = buckets.get(link_key)
            if bucket is None:
                bucket = buckets[link_key] = _Bucket()
            else:
                hits.append(bucket.query(start, end, period, code))
            # the query skips this color: no self-hit on a later link
            bucket.append(vid, start, end, period, code)
        lower = np.unique(np.concatenate(hits)).tolist() if hits else []
        # a row gets its lower neighbours now and its higher ones, in
        # ascending order, as they are scanned
        rows.append(lower)
        for u in lower:
            rows[u].append(vid)
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return indptr, np.array([u for r in rows for u in r], dtype=np.int64)
