"""Vertex-colored conflict graph over (stream, route, phase) configurations.

Vertices are configurations, colors are streams, and an edge joins two
differently-colored configurations whose frames overlap on a shared directed
link somewhere in their pairwise hypercycle. Same-color conflicts are never
materialized: the colorful-set rule already forbids picking two vertices of
one color.

Insertion only queues a vertex. `join_queued` joins every queued vertex
against the stored intervals, and against the other queued vertices, in one
chunked numpy pass. `expand` calls it; otherwise the first read of the edges
does.

The occupancy intervals are stored as flat columns sorted by (link, period,
start); the rows of one link and period form a class. Two intervals conflict
only if some multiple m of g = gcd(pa, pb) satisfies sa - eb < m < ea - sb.
So the starts in a class that can conflict with a query interval lie in one
window per such m, as wide as the query plus the class's longest interval,
and `searchsorted` finds each window. When the windows touch, or outnumber
the class's rows or `MAX_WINDOWS`, the query scans one window that spans
them all instead. `periodic_overlap` is the exact filter on every candidate.

A vertex is a row of integer columns: color code, route index and phase.
Each live (stream, route index) keeps one route and phase-0 schedule, from
which `config` builds a `Configuration`. The edges are one pair of int64
arrays, (earlier vid, later vid), ordered by the later vid and then the
earlier one; a join appends its edges in that order. Removing streams
flushes their rows and compacts the other ids, in order, by one cumsum remap
of the columns, the store and the pair: a vid stays valid until the next
removal. The CSR adjacency (indptr, indices) is built from the pair.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

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
#: columns of a vertex: its stream's color code, its route index and phase
_VERTEX_COLUMNS = {"color": np.int32, "route": np.int32, "phase": np.int64}


class DuplicateConfiguration(Exception):
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
        self._color_code: dict[str, int] = {}  # live stream id -> color code
        # live color code -> (stream, {route index: (route, schedule, phases)})
        self._colors: dict[int, tuple[Stream, dict]] = {}
        self._link_code: dict[tuple[str, str], int] = {}
        # one row per vertex; the arrays grow by doubling, so only the first
        # _n rows are vertices
        self._vert = {name: np.empty(0, dtype=t) for name, t in _VERTEX_COLUMNS.items()}
        self._n = 0
        self._added = 0
        # the intervals of the joined vertices, sorted by (link, period, start)
        self._store = {name: np.empty(0, dtype=t) for name, t in _COLUMNS.items()}
        self._joined = 0  # vids from here on are queued
        # live edges as (earlier vid, later vid), ordered by the later vid
        self._lo = np.empty(0, dtype=np.int64)
        self._hi = np.empty(0, dtype=np.int64)
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def slot_count(self) -> int:
        """Number of vertices ever added, removed ones included. Ids are
        compacted, so this is not the range of the vids."""
        return self._added

    @property
    def edge_count(self) -> int:
        self.join_queued()
        return len(self._lo)

    def colors(self) -> set[str]:
        return set(self._color_code)

    def _column(self, name: str) -> np.ndarray:
        return self._vert[name][: self._n]

    def vids_of(self, stream_id: str) -> list[int]:
        code = self._color_code.get(stream_id, -1)
        return np.flatnonzero(self._column("color") == code).tolist()

    def columns(self, stream_ids: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per vertex: the position of its stream in `stream_ids` (-1 when
        it is not listed), its route index and its phase."""
        where = {self._color_code.get(sid): i for i, sid in enumerate(stream_ids)}
        codes = sorted(self._colors)
        index = np.array([where.get(c, -1) for c in codes], dtype=np.int64)
        at = np.searchsorted(codes, self._column("color"))
        return index[at], self._column("route"), self._column("phase")

    def config(self, vid: int) -> Configuration:
        color, route_index, phase = (int(self._column(name)[vid]) for name in _VERTEX_COLUMNS)
        stream, routes = self._colors[color]
        route, schedule, _ = routes[route_index]
        return Configuration(stream, route_index, route, phase, schedule)

    # -- mutation ----------------------------------------------------------

    def add_configuration(self, cfg: Configuration) -> int:
        """Give the configuration a vid and queue it for the next join."""
        sid = cfg.stream.id
        # a new stream's code is the number of vertices added before it
        code = self._color_code.setdefault(sid, self._added)
        if code == self._added:
            self._colors[code] = (cfg.stream, {})
        routes = self._colors[code][1]
        phases = routes.setdefault(cfg.route_index, (cfg.route, cfg.schedule, set()))[2]
        if cfg.phase in phases:
            raise DuplicateConfiguration(f"{cfg.key} already present")
        phases.add(cfg.phase)
        vid = self._n
        if vid == len(self._vert["color"]):
            self._vert = {name: np.resize(col, 2 * vid + 64) for name, col in self._vert.items()}
        for name, value in zip(_VERTEX_COLUMNS, (code, cfg.route_index, cfg.phase)):
            self._vert[name][vid] = value
        self._n += 1
        self._added += 1
        self._csr = None
        return vid

    def remove_streams(self, stream_ids: Iterable[str]) -> int:
        """Drop the vertices of the given streams; returns how many."""
        codes = [self._color_code.pop(sid) for sid in stream_ids if sid in self._color_code]
        if not codes:
            return 0
        for code in codes:
            del self._colors[code]
        n = self._n
        self._flush_removals()
        return n - self._n

    def join_queued(self) -> None:
        """Append the edges of every queued vertex. The queued intervals
        join the store first, so they meet each other too; the pass runs in
        chunks of whole vertices."""
        first = self._joined
        if first == self._n:
            return
        self._joined = self._n
        new = self._queued_rows(first)
        store = {name: np.concatenate([col, new[name]])
                 for name, col in self._store.items()}
        order = np.lexsort((store["start"], store["period"], store["link"]))
        store = self._store = {name: col[order] for name, col in store.items()}
        del order  # free it before the pass, as the rebinding freed the unsorted copy
        classes = _Classes(store, len(self._link_code))
        vid = new["vid"]
        cuts = np.unique(np.searchsorted(vid, vid[::JOIN_CHUNK]))
        codes = np.concatenate([
            classes.conflicts({name: col[a:b] for name, col in new.items()}, store)
            for a, b in zip(cuts, [*cuts[1:], len(vid)])
        ])
        self._lo = np.concatenate([self._lo, codes & 0xFFFFFFFF])
        self._hi = np.concatenate([self._hi, codes >> 32])
        self._csr = None

    def _queued_rows(self, first: int) -> dict[str, np.ndarray]:
        """Store rows of the vertices from `first` on, in vid order: the
        entries of each one's shared phase-0 schedule, shifted by its phase."""
        color = self._column("color")[first:].astype(np.int64)
        phase = self._column("phase")[first:]
        # the queued vertices' (color, route index) pairs, one schedule each
        pairs, which = np.unique(color << 32 | self._column("route")[first:], return_inverse=True)
        owners = [self._colors[p >> 32] for p in pairs.tolist()]
        scheds = [routes[p & 0xFFFFFFFF][1] for (_, routes), p in zip(owners, pairs.tolist())]
        code = self._link_code
        entries = [e for s in scheds for e in s.entries]
        link = np.array(
            [code.setdefault(key, len(code)) for key, _, _ in entries], dtype=np.int64
        )
        start = np.array([s for _, s, _ in entries], dtype=np.int64)
        end = np.array([e for _, _, e in entries], dtype=np.int64)
        hops = np.array([len(s.entries) for s in scheds], dtype=np.int64)
        period = np.array([stream.period for stream, _ in owners], dtype=np.int64)[which]
        vert, hop = _ragged(hops[which])
        entry = (np.cumsum(hops) - hops)[which][vert] + hop
        rows = {
            "link": link[entry], "period": period[vert], "start": start[entry] + phase[vert],
            "end": end[entry] + phase[vert], "vid": first + vert, "color": color[vert],
        }
        return {name: rows[name].astype(t) for name, t in _COLUMNS.items()}

    def _flush_removals(self) -> None:
        """Drop the rows of removed streams from the vertex columns, the
        store and the edge pair, and renumber the other vertices in order."""
        keep = np.isin(self._column("color"), list(self._colors))
        new_vid = np.cumsum(keep) - 1
        self._vert = {name: self._column(name)[keep] for name in _VERTEX_COLUMNS}
        self._joined = int(np.count_nonzero(keep[: self._joined]))
        self._n = len(self._vert["color"])
        rows = keep[self._store["vid"]]
        self._store = {name: col[rows] for name, col in self._store.items()}
        self._store["vid"] = new_vid[self._store["vid"]].astype(np.int32)
        edges = keep[self._lo] & keep[self._hi]
        self._lo, self._hi = new_vid[self._lo[edges]], new_vid[self._hi[edges]]
        self._csr = None

    # -- derived structure and metrics -------------------------------------

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency as (indptr, indices) over the vertices: the neighbours of
        v are indices[indptr[v]:indptr[v + 1]], in ascending order. The pair
        is ordered by the later vid and then the earlier one, so a stable sort
        by row lists each row's lower neighbours, then its higher ones."""
        if self._csr is None:  # a removal or insertion drops the cache
            self.join_queued()
            lo, hi = self._lo, self._hi
            rows = np.concatenate([hi, lo])
            indices = np.concatenate([lo, hi])[np.argsort(rows, kind="stable")]
            counts = np.bincount(rows, minlength=self._n)
            self._csr = (np.concatenate([[0], np.cumsum(counts)]), indices)
        return self._csr

    def page_rank(self) -> np.ndarray:
        """Power iteration treating each edge as two directed arcs; degree-0
        vertices spread their mass uniformly. Scores are renormalized every
        iteration and sum to 1."""
        n = self.vertex_count
        if n == 0:
            return np.zeros(0)
        indptr, indices = self.csr()
        deg = np.diff(indptr)
        dangling = deg == 0
        safe = np.where(deg > 0, deg, 1.0)
        p = np.full(n, 1.0 / n)
        # bincount adds each row's terms left to right in neighbour order, as a
        # sequential CSR matvec does; another order can change the last bits
        rows = np.repeat(np.arange(n), deg)
        for _ in range(PAGERANK_ITERATIONS):
            spread = np.bincount(rows, (p / safe)[indices], n)
            mass = p[dangling].sum()
            p_new = (1.0 - PAGERANK_DAMPING) / n + PAGERANK_DAMPING * (spread + mass / n)
            p = p_new / p_new.sum()
        return p
