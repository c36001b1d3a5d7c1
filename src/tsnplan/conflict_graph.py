"""Vertex-colored conflict graph over (stream, route, phase) configurations.

Vertices are configurations, colors are streams, and an edge joins two
differently-colored configurations whose frames overlap on a shared directed
link somewhere in their pairwise hypercycle. Same-color conflicts are never
materialized: the colorful-set rule already forbids picking two vertices of
one color.

Insertion checks the new configuration against every existing one. To keep
that affordable at graph sizes in the tens of thousands, occupancy intervals
are indexed per directed link in flat numpy arrays and the periodic-overlap
test runs vectorized over each link's interval list.

Vertex ids are never reused; a removed vertex leaves an empty id slot. The
live edges are one pair of int64 arrays, (earlier vid, later vid), ordered
by the later vid. An insertion only queues its sorted array of earlier-vid
neighbours; queued arrays are merged into the pair when the edges are next
read. Removals are flushed lazily by one mask over the pair. The CSR
adjacency is a pair of arrays, (indptr, indices), built from the edge pair;
the degrees and every metric are derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import Stream
from .routing import Route
# link_occupancy is no longer called here, but perfbench/tracing.py wraps it
# in this namespace
from .timing import OccupancySchedule, link_occupancy, periodic_overlap  # noqa: F401

PAGERANK_DAMPING = 0.85
PAGERANK_ITERATIONS = 4


class DuplicateConfiguration(Exception):
    pass


class NoVertices(Exception):
    pass


@dataclass(frozen=True)
class Configuration:
    """`schedule` is the phase-0 occupancy of (stream, route), shared by all
    its configurations; this one's intervals are shifted by `phase`."""

    stream: Stream
    route_index: int
    route: Route
    phase: int
    schedule: OccupancySchedule

    @property
    def key(self) -> tuple[str, int, int]:
        return (self.stream.id, self.route_index, self.phase)


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

    def filter(self, keep_mask: np.ndarray):
        n = self.n
        idx = np.flatnonzero(keep_mask)
        for name in self.__slots__[1:]:
            arr = getattr(self, name)
            arr[: len(idx)] = arr[:n][idx]
        self.n = len(idx)


class ConflictGraph:
    def __init__(self):
        self._configs: list[Configuration | None] = []  # by vid, None once removed
        self._color_vids: dict[str, list[int]] = {}
        self._key2vid: dict[tuple[str, int, int], int] = {}
        self._color_code: dict[str, int] = {}
        self._buckets: dict[tuple[str, str], _Bucket] = {}
        # live edges as (earlier vid, later vid), ordered by the later vid
        self._lo = np.empty(0, dtype=np.int64)
        self._hi = np.empty(0, dtype=np.int64)
        # earlier-vid neighbours of each vertex inserted since the last merge
        self._pending: list[np.ndarray] = []
        self._pending_removal = False
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._key2vid)

    @property
    def slot_count(self) -> int:
        """Number of vertex id slots ever allocated, including removed ones."""
        return len(self._configs)

    @property
    def edge_count(self) -> int:
        return len(self._edge_pair()[0])

    def colors(self) -> set[str]:
        return set(self._color_vids)

    def vids_of(self, stream_id: str) -> list[int]:
        return list(self._color_vids.get(stream_id, ()))

    def config(self, vid: int) -> Configuration:
        cfg = self._configs[vid]
        if cfg is None:
            raise KeyError(f"vertex {vid} was removed")
        return cfg

    def find_vid(self, stream_id: str, route_index: int, phase: int) -> int | None:
        return self._key2vid.get((stream_id, route_index, phase))

    # -- mutation ----------------------------------------------------------

    def add_configuration(self, cfg: Configuration) -> int:
        self._flush_removals()
        if cfg.key in self._key2vid:
            raise DuplicateConfiguration(f"{cfg.key} already present")
        sid = cfg.stream.id
        code = self._color_code.setdefault(sid, len(self._color_code))
        period, phase = cfg.stream.period, cfg.phase
        vid = len(self._configs)
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
        self._configs.append(cfg)
        self._pending.append(nbrs)
        self._color_vids.setdefault(sid, []).append(vid)
        self._key2vid[cfg.key] = vid
        self._csr = None
        return vid

    def remove_stream(self, stream_id: str) -> int:
        vids = self._color_vids.pop(stream_id, None)
        if not vids:
            return 0
        for v in vids:
            self._key2vid.pop(self._configs[v].key)
            self._configs[v] = None
        self._pending_removal = True
        self._csr = None
        return len(vids)

    def _alive_mask(self) -> np.ndarray:
        alive = np.zeros(len(self._configs), dtype=bool)
        alive[list(self._key2vid.values())] = True
        return alive

    def _edge_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The live edges: removals flushed, pending insertions merged."""
        self._flush_removals()
        self._merge_pending()
        return self._lo, self._hi

    def _merge_pending(self) -> None:
        if self._pending:
            first = len(self._configs) - len(self._pending)
            counts = [len(nbrs) for nbrs in self._pending]
            later = np.repeat(np.arange(first, len(self._configs)), counts)
            self._lo = np.concatenate([self._lo, *self._pending])
            self._hi = np.concatenate([self._hi, later])
            self._pending = []

    def _flush_removals(self) -> None:
        """Purge dead vertices from the link index and the edge list; done
        once per removal batch, on the next query or insertion."""
        if not self._pending_removal:
            return
        alive = self._alive_mask()
        for bucket in self._buckets.values():
            n = bucket.n
            if n:
                bucket.filter(alive[bucket.vid[:n]])
        self._merge_pending()
        keep = alive[self._lo] & alive[self._hi]
        self._lo, self._hi = self._lo[keep], self._hi[keep]
        self._pending_removal = False

    # -- derived structure and metrics -------------------------------------

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency as (indptr, indices) over all vid slots: the neighbours of
        v are indices[indptr[v]:indptr[v + 1]], in ascending order. The pair
        is ordered by the later vid and then the earlier one, so a stable sort
        by row lists each row's lower neighbours, then its higher ones."""
        if self._csr is None:  # a removal or insertion drops the cache
            lo, hi = self._edge_pair()
            rows = np.concatenate([hi, lo])
            indices = np.concatenate([lo, hi])[np.argsort(rows, kind="stable")]
            counts = np.bincount(rows, minlength=len(self._configs))
            self._csr = (np.concatenate([[0], np.cumsum(counts)]), indices)
        return self._csr

    def _degrees(self) -> np.ndarray:
        """Degree of every vid slot; 0 for removed ones."""
        return np.diff(self.csr()[0])

    def avg_degree(self, stream_id: str) -> Fraction:
        vids = self._color_vids.get(stream_id)
        if not vids:
            raise NoVertices(f"stream {stream_id!r} has no vertices")
        return Fraction(int(self._degrees()[vids].sum()), len(vids))

    def page_rank(self) -> dict[int, float]:
        """Power iteration treating each edge as two directed arcs; degree-0
        vertices spread their mass uniformly. Scores are renormalized every
        iteration and sum to 1."""
        n = self.vertex_count
        if n == 0:
            return {}
        indptr, indices = self.csr()
        slots = len(indptr) - 1
        alive = self._alive_mask()
        live = np.flatnonzero(alive)
        deg = self._degrees()
        dangling = alive & (deg == 0)
        safe = np.where(deg > 0, deg, 1.0)
        p = np.where(alive, 1.0 / n, 0.0)
        # bincount adds each row's terms left to right in neighbour order, as a
        # sequential CSR matvec does; another order can change the last bits
        rows = np.repeat(np.arange(slots), deg)
        for _ in range(PAGERANK_ITERATIONS):
            spread = np.bincount(rows, (p / safe)[indices], slots)
            mass = p[dangling].sum()
            p_new = (1.0 - PAGERANK_DAMPING) / n + PAGERANK_DAMPING * (spread + mass / n)
            p_new = np.where(alive, p_new, 0.0)
            p = p_new / p_new.sum()
        return dict(zip(live.tolist(), p[live].tolist()))

    def stream_rank(self, pr: dict[int, float], stream_id: str) -> float:
        vids = self._color_vids.get(stream_id)
        if not vids:
            raise NoVertices(f"stream {stream_id!r} has no vertices")
        return sum(pr[v] for v in vids)
