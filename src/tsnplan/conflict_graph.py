"""Vertex-colored conflict graph over (stream, route, phase) configurations.

Vertices are configurations, colors are streams, and an edge joins two
differently-colored configurations whose frames overlap on a shared directed
link somewhere in their pairwise hypercycle. Same-color conflicts are never
materialized: the colorful-set rule already forbids picking two vertices of
one color.

Insertion only queues a vertex. `join_queued` joins every queued vertex
against the stored intervals, and against the other queued vertices, in one
chunked numpy pass. `expand` calls it; otherwise the first read of the edges
or removal of a stream does.

The occupancy intervals are stored as flat columns sorted by (link, period,
start); the rows of one link and period form a class. Two intervals conflict
only if some multiple m of g = gcd(pa, pb) satisfies sa - eb < m < ea - sb.
So the starts in a class that can conflict with a query interval lie in one
window per such m, as wide as the query plus the class's longest interval,
and `searchsorted` finds each window. When the windows touch, or outnumber
the class's rows or `MAX_WINDOWS`, the query scans one window that spans
them all instead. `periodic_overlap` is the exact filter on every candidate.

Vertex ids are never reused; a removed vertex leaves an empty id slot. The
live edges are one pair of int64 arrays, (earlier vid, later vid), ordered
by the later vid and then the earlier one; a join appends its edges in that
order. Removals are flushed lazily by one mask over the store and the pair.
The CSR adjacency is a pair of arrays, (indptr, indices), built from the edge
pair; the degrees and every metric are derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import Stream
from .routing import Route
# link_occupancy is not called here: the graph shifts each configuration's
# shared phase-0 schedule by its phase. perfbench/tracing.py still wraps the
# name in this namespace and fails a traced run when it is missing.
from .timing import OccupancySchedule, link_occupancy, periodic_overlap  # noqa: F401

PAGERANK_DAMPING = 0.85
PAGERANK_ITERATIONS = 4

#: queued intervals per join chunk, windows per query interval and class, and
#: candidate rows per `periodic_overlap` call; together they bound the join's
#: temporary arrays
JOIN_CHUNK = 512
MAX_WINDOWS = 64
CANDIDATE_CHUNK = 1 << 16

#: columns of the interval store, one row per (vertex, link)
_COLUMNS = {
    "link": np.int32, "period": np.int32, "start": np.int64, "end": np.int64,
    "vid": np.int32, "color": np.int32,
}


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


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and rank of each item when owner i has counts[i] items: for
    counts [2, 0, 3], owners [0, 0, 2, 2, 2] and ranks [0, 1, 0, 1, 2]."""
    owner = np.repeat(np.arange(len(counts)), counts)
    rank = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
    return owner, rank


class _Classes:
    """The (link, period) classes of a sorted store: per class its period,
    row count, longest interval and first and last start, and per row a key
    that increases through the whole store, so that one `searchsorted` finds
    a window of starts inside any class."""

    def __init__(self, store: dict[str, np.ndarray], n_links: int):
        link, period, start = store["link"], store["period"], store["start"]
        cut = np.flatnonzero((link[1:] != link[:-1]) | (period[1:] != period[:-1])) + 1
        first = np.concatenate([[0], cut])
        last = np.concatenate([cut, [len(link)]])
        self.period = period[first].astype(np.int64)
        self.size = last - first
        self.longest = np.maximum.reduceat(store["end"] - start, first)
        self.smin, self.smax = start[first], start[last - 1]
        span = self.smax - self.smin + 1
        # the key of start s in class c is base[c] + s
        self.base = np.cumsum(span) - span - self.smin
        self.key = np.repeat(self.base, self.size) + start
        # the classes of link l are [first_of[l], end_of[l])
        links = np.arange(n_links)
        self.first_of = np.searchsorted(link[first], links)
        self.end_of = np.searchsorted(link[first], links, side="right")

    def conflicts(self, q: dict[str, np.ndarray], store: dict[str, np.ndarray]) -> np.ndarray:
        """Edges of the query rows `q` to earlier vids of other colors, as
        sorted unique codes (later vid << 32 | earlier vid)."""
        # one pair per query row and class on its link
        first = self.first_of[q["link"]]
        qi, k = _ragged(self.end_of[q["link"]] - first)
        c = first[qi] + k
        sa, ea = q["start"][qi], q["end"][qi]
        pa, pb, longest = q["period"][qi].astype(np.int64), self.period[c], self.longest[c]
        g = np.gcd(pa, pb)
        h = pa // g * pb
        # the multiples m of g that some row of the class can satisfy, within
        # the band periodic_overlap allows
        lo = np.maximum(sa - self.smax[c] - longest + 1, pa - h)
        hi = np.minimum(ea - self.smin[c] - 1, h - pb)
        m_first = -(-lo // g) * g
        m_last = hi // g * g
        n_win = np.maximum((m_last - m_first) // g + 1, 0)
        # one spanning window when the windows touch or outnumber the rows
        spanning = (g <= ea - sa + longest - 1) | (
            n_win > np.minimum(self.size[c], MAX_WINDOWS)
        )
        n_win[spanning] = np.minimum(n_win[spanning], 1)

        # the window of multiple m holds the starts in [sa - m - longest + 1, ea - m)
        w, k = _ragged(n_win)
        m_top = np.where(spanning[w], m_last[w], m_first[w] + k * g[w])
        m_bot = np.where(spanning[w], m_first[w], m_top)
        cw = c[w]
        floor, ceil = self.smin[cw], self.smax[cw] + 1
        start_lo = np.clip(sa[w] - m_top - longest[w] + 1, floor, ceil)
        start_hi = np.clip(ea[w] - m_bot, floor, ceil)
        row_lo = np.searchsorted(self.key, self.base[cw] + start_lo)
        n_cand = np.maximum(np.searchsorted(self.key, self.base[cw] + start_hi) - row_lo, 0)
        owner = qi[w]

        codes = [np.empty(0, dtype=np.int64)]
        total = np.cumsum(n_cand)
        cuts = np.searchsorted(
            total, np.arange(CANDIDATE_CHUNK, total[-1] if len(total) else 0, CANDIDATE_CHUNK)
        )
        for a, b in zip([0, *cuts], [*cuts, len(n_cand)]):
            wi, k = _ragged(n_cand[a:b])
            j = row_lo[a:b][wi] + k
            r = owner[a:b][wi]
            keep = (store["vid"][j] < q["vid"][r]) & (store["color"][j] != q["color"][r])
            j, r = j[keep], r[keep]
            hit = periodic_overlap(
                q["start"][r], q["end"][r], q["period"][r].astype(np.int64),
                store["start"][j], store["end"][j], store["period"][j].astype(np.int64),
            )
            codes.append(q["vid"][r[hit]].astype(np.int64) << 32 | store["vid"][j[hit]])
        # a pair that conflicts on several links is found once per link;
        # sort and drop repeats (np.unique hashes first, and is slower)
        codes = np.sort(np.concatenate(codes))
        return codes[np.diff(codes, prepend=-1) != 0]


class ConflictGraph:
    def __init__(self):
        self._configs: list[Configuration | None] = []  # by vid, None once removed
        self._color_vids: dict[str, list[int]] = {}
        self._key2vid: dict[tuple[str, int, int], int] = {}
        self._color_code: dict[str, int] = {}
        self._link_code: dict[tuple[str, str], int] = {}
        # the intervals of the joined vertices, sorted by (link, period, start)
        self._store = {name: np.empty(0, dtype=t) for name, t in _COLUMNS.items()}
        self._joined = 0  # vids from here on are queued
        # live edges as (earlier vid, later vid), ordered by the later vid
        self._lo = np.empty(0, dtype=np.int64)
        self._hi = np.empty(0, dtype=np.int64)
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
        """Give the configuration a vid and queue it for the next join."""
        if cfg.key in self._key2vid:
            raise DuplicateConfiguration(f"{cfg.key} already present")
        sid = cfg.stream.id
        self._color_code.setdefault(sid, len(self._color_code))
        vid = len(self._configs)
        self._configs.append(cfg)
        self._color_vids.setdefault(sid, []).append(vid)
        self._key2vid[cfg.key] = vid
        self._csr = None
        return vid

    def remove_stream(self, stream_id: str) -> int:
        if not self._color_vids.get(stream_id):
            return 0
        self.join_queued()  # the join reads the configurations removal drops
        vids = self._color_vids.pop(stream_id)
        for v in vids:
            self._key2vid.pop(self._configs[v].key)
            self._configs[v] = None
        self._pending_removal = True
        self._csr = None
        return len(vids)

    def join_queued(self) -> None:
        """Append the edges of every queued vertex, after flushing removals.
        The queued intervals join the store first, so they meet each other
        too; the pass runs in chunks of whole vertices."""
        first = self._joined
        if first == len(self._configs):
            return
        self._flush_removals()
        self._joined = len(self._configs)
        new = self._queued_rows(first)
        store = {name: np.concatenate([col, new[name]])
                 for name, col in self._store.items()}
        order = np.lexsort((store["start"], store["period"], store["link"]))
        store = self._store = {name: col[order] for name, col in store.items()}
        del order  # free it before the pass, as the rebinding freed the unsorted copy
        classes = _Classes(store, len(self._link_code))
        vid = new["vid"]
        cuts = np.unique(np.searchsorted(vid, vid[::JOIN_CHUNK]))
        codes = [
            classes.conflicts({name: col[a:b] for name, col in new.items()}, store)
            for a, b in zip(cuts, [*cuts[1:], len(vid)])
        ]
        codes = np.concatenate(codes)
        self._lo = np.concatenate([self._lo, codes & 0xFFFFFFFF])
        self._hi = np.concatenate([self._hi, codes >> 32])
        self._csr = None

    def _queued_rows(self, first: int) -> dict[str, np.ndarray]:
        """Store rows of the vertices from `first` on, in vid order: the
        entries of each one's shared phase-0 schedule, shifted by its phase."""
        queued = self._configs[first:]
        scheds: list[OccupancySchedule] = []
        index: dict[int, int] = {}  # id of a schedule -> its place in scheds
        which = []
        for c in queued:
            i = index.setdefault(id(c.schedule), len(scheds))
            if i == len(scheds):
                scheds.append(c.schedule)
            which.append(i)
        code = self._link_code
        entries = [e for s in scheds for e in s.entries]
        link = np.array(
            [code.setdefault(key, len(code)) for key, _, _ in entries], dtype=np.int64
        )
        start = np.array([s for _, s, _ in entries], dtype=np.int64)
        end = np.array([e for _, _, e in entries], dtype=np.int64)
        hops = np.array([len(s.entries) for s in scheds], dtype=np.int64)
        which = np.array(which, dtype=np.int64)
        vert, hop = _ragged(hops[which])
        entry = (np.cumsum(hops) - hops)[which][vert] + hop
        n = len(queued)
        phase = np.fromiter((c.phase for c in queued), np.int64, n)[vert]
        period = np.fromiter((c.stream.period for c in queued), np.int64, n)
        color = np.fromiter((self._color_code[c.stream.id] for c in queued), np.int64, n)
        rows = {
            "link": link[entry], "period": period[vert], "start": start[entry] + phase,
            "end": end[entry] + phase, "vid": first + vert, "color": color[vert],
        }
        return {name: rows[name].astype(t) for name, t in _COLUMNS.items()}

    def _alive_mask(self) -> np.ndarray:
        alive = np.zeros(len(self._configs), dtype=bool)
        alive[list(self._key2vid.values())] = True
        return alive

    def _edge_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The live edges: queued vertices joined, removals flushed."""
        self.join_queued()
        self._flush_removals()
        return self._lo, self._hi

    def _flush_removals(self) -> None:
        """Purge dead vertices from the store and the edge list; done once
        per removal batch, on the next join or read."""
        if not self._pending_removal:
            return
        alive = self._alive_mask()
        keep = alive[self._store["vid"]]
        self._store = {name: col[keep] for name, col in self._store.items()}
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
