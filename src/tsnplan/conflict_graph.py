"""Vertex-colored conflict graph over (stream, route, phase) configurations.

Vertices are configurations, colors are streams, and an edge joins two
differently-colored configurations whose frames overlap on a shared directed
link somewhere in their pairwise hypercycle. Same-color conflicts are never
materialized: the colorful-set rule already forbids picking two vertices of
one color.

Insertion only queues a vertex. `join_queued` joins every queued vertex
against the stored intervals, and against the other queued vertices, in one
chunked numpy pass. `expand` calls it; otherwise the first read of the edges
does. A removal leaves the queued vertices queued.

The occupancy intervals are stored as flat columns sorted by (link, period,
start); the rows of one link and period form a class. Each row carries a
key that packs the link and the period's rank above the start, so the order
is the order of one int64 column, and no other column repeats the link or
the period. A change in the live streams' periods re-ranks the keys. A
join sorts only the queued rows and merges them in: one `searchsorted` of
their keys in the stored keys gives their rows, and the same rows place
them in every column.

Two intervals conflict only if some multiple m of g = gcd(pa, pb) satisfies
sa - eb < m < ea - sb. So the starts in a class that can conflict with a
query interval lie in one window per such m, as wide as the query plus the
class's longest interval, and `searchsorted` finds each window. When the
windows touch, or outnumber the class's rows or `MAX_WINDOWS`, the query
scans one window that spans them all instead. The band test of
`periodic_overlap`, `overlap_in_band`, is the exact filter on every
candidate, with the gcd and band of each query row and class computed once.

Only the queued rows search. A queued row searches every class on its link
that holds joined rows. A pair of queued rows is found from one side: in a
class of queued rows only, a row looks at the rows after it in its own
class and at the classes of shorter periods. The longer period's side needs
one or two windows per class where the shorter side would need up to
pb / pa, and an offline batch, where every row is queued, finds each pair
once per shared link. The edges are sorted and deduplicated once per join.

A vertex is a row of integer columns: color code, route index and phase.
Each live (stream, route index) keeps its route and phase-0 schedule, for
`config`, and the schedule's (link code, period, start, end) rows as one
array, which a join shifts by each queued phase. The edges live only in the
CSR (indptr, indices) of the joined vertices. A new edge's later vid is
queued, so a join sorts the new arcs as (row, column) keys and appends them
to the old rows. Removing streams masks out their rows and arcs and
compacts the other ids in order: a vid stays valid until the next removal.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .model import Stream
from .routing import Route
# link_occupancy is not called here, but perfbench/tracing.py wraps the name
# in this namespace and fails a traced run when it is missing.
from .timing import OccupancySchedule, link_occupancy, overlap_in_band  # noqa: F401

PAGERANK_DAMPING = 0.85
PAGERANK_ITERATIONS = 4

#: queued intervals per join chunk, windows per query interval and class, and
#: candidate rows per `overlap_in_band` call; together they bound the join's
#: temporary arrays
JOIN_CHUNK = 512
MAX_WINDOWS = 64
CANDIDATE_CHUNK = 1 << 16

#: columns of the interval store, one row per (vertex, link): the sort key,
#: which also holds the link and the period, the interval, and `vc`, which
#: packs the vertex's vid << 32 | its color code
_COLUMNS = {"key": np.int64, "start": np.int64, "end": np.int64, "vc": np.int64}
#: columns of a vertex: its stream's color code, its route index and phase
_VERTEX_COLUMNS = {"color": np.int32, "route": np.int32, "phase": np.int64}
#: the low 32 bits, which hold a store key's start and a `vc`'s color code
_LOW = (1 << 32) - 1
#: the most (link, period) classes a store key can number: the keys of class
#: c lie below (c + 1) << 32, which a window search adds and must stay below
#: 2**63
_MAX_CLASSES = (1 << 31) - 1


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


def _store_keys(link: np.ndarray, period: np.ndarray, start: np.ndarray,
                periods: np.ndarray) -> np.ndarray:
    """One int64 per row that increases with (link, period, start): the class
    number link * len(periods) + the period's rank in the sorted `periods`,
    above the start in the low 32 bits."""
    return (link * len(periods) + np.searchsorted(periods, period)) << 32 | start


def _key_class(key: np.ndarray, periods: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The link and the period that `_store_keys` packed into `key`."""
    cls = key >> 32
    return cls // len(periods), periods[cls % len(periods)]


class _Classes:
    """The (link, period) classes of a sorted store: per class its period,
    first row, row count, longest interval, first and last start and whether
    it holds only queued rows. The store key increases through the whole
    store, so one `searchsorted` finds a window of starts inside any class."""

    def __init__(self, store: dict[str, np.ndarray], queued: np.ndarray, periods: np.ndarray):
        key = self.key = store["key"]
        cls = key >> 32
        cut = np.flatnonzero(cls[1:] != cls[:-1]) + 1
        first = self.first = np.concatenate([[0], cut])
        last = np.concatenate([cut, [len(key)]])
        start = store["start"]
        link, self.period = _key_class(key[first], periods)
        self.size = last - first
        self.longest = np.maximum.reduceat(store["end"] - start, first)
        self.smin, self.smax = start[first], start[last - 1]
        # a bound on the last tick a row of the class holds, and the windows
        # a query may search in it before it scans one spanning window
        self.reach = self.smax + self.longest - 1
        self.max_windows = np.minimum(self.size, MAX_WINDOWS)
        self.queued = np.logical_and.reduceat(queued, first)
        # the key of start s in class c is base[c] + s
        self.base = cls[first] << 32
        # the classes on the link of class c are [link_first[c], link_end[c])
        cut = np.flatnonzero(link[1:] != link[:-1]) + 1
        lo, hi = np.concatenate([[0], cut]), np.concatenate([cut, [len(link)]])
        self.link_first, self.link_end = np.repeat(lo, hi - lo), np.repeat(hi, hi - lo)

    def conflicts(self, pos: np.ndarray, store: dict[str, np.ndarray]) -> np.ndarray:
        """Edges of the queued rows at the ascending store positions `pos`
        to rows of other colors, as codes (later vid << 32 | earlier vid).
        A queued row meets every stored row of a class that holds joined
        rows. In a class of queued rows only, it meets the rows after it in
        its own class and every row of a shorter period, so a pair of queued
        rows is met once per shared link, or twice where a joined row shares
        its class."""
        q = {name: store[name][pos] for name in ("start", "end", "vc")}
        own = np.searchsorted(self.first, pos, side="right") - 1
        # one pair per query row and class on its link
        first = self.link_first[own]
        qi, k = _ragged(self.link_end[own] - first)
        c = first[qi] + k
        # a queued-only class of a longer period meets this row from its side
        met = ~self.queued[c] | (c <= own[qi])
        qi, c = qi[met], c[met]
        sa, ea = q["start"][qi], q["end"][qi]
        pa, pb, longest = self.period[own[qi]], self.period[c], self.longest[c]
        g = np.gcd(pa, pb)
        h = pa // g * pb
        band_lo, band_hi = pa - h, h - pb
        # the multiples m of g that some row of the class can satisfy, within
        # the band of achievable start differences
        lo = np.maximum(sa - self.reach[c], band_lo)
        hi = np.minimum(ea - self.smin[c] - 1, band_hi)
        m_first = -(-lo // g) * g
        m_last = hi // g * g
        n_win = np.maximum((m_last - m_first) // g + 1, 0)
        # one spanning window when the windows touch or outnumber the rows
        spanning = (g <= ea - sa + longest - 1) | (n_win > self.max_windows[c])
        np.minimum(n_win, 1, out=n_win, where=spanning)
        # the window of multiple m holds the starts in [sa - m - longest + 1,
        # ea - m), a spanning one those from m_last's first to m_first's
        # last; the k-th window of a pair lies k * g below the first
        lowest = sa - longest + 1 - np.where(spanning, m_last, m_first)
        highest = ea - m_first
        w, k = _ragged(n_win)
        kg = k * g[w]
        cw = c[w]
        base = self.base[cw]
        # clipped to the class's block of keys
        row_lo = np.searchsorted(self.key, base + np.clip(lowest[w] - kg, 0, _LOW + 1))
        row_hi = np.searchsorted(self.key, base + np.clip(highest[w] - kg, 0, _LOW + 1))
        owner = qi[w]
        # in its own queued-only class a row looks only at the rows after it
        after = self.queued[cw] & (cw == own[owner])
        row_lo[after] = np.maximum(row_lo[after], pos[owner[after]] + 1)
        n_cand = np.maximum(row_hi - row_lo, 0)

        codes = [np.empty(0, dtype=np.int64)]
        total = np.cumsum(n_cand)
        stops = np.arange(CANDIDATE_CHUNK, total[-1] if len(total) else 0, CANDIDATE_CHUNK)
        cuts = np.searchsorted(total, stops)
        for a, b in zip([0, *cuts], [*cuts, len(n_cand)]):
            n = n_cand[a:b]
            p = np.repeat(w[a:b], n)  # the candidates' (query row, class) pairs
            j = np.repeat(row_lo[a:b] - (np.cumsum(n) - n), n) + np.arange(len(p))
            hit = overlap_in_band(
                sa[p], ea[p], store["start"][j], store["end"][j], g[p], band_lo[p], band_hi[p]
            )
            vc, qvc = store["vc"][j[hit]], q["vc"][qi[p[hit]]]
            keep = ((vc ^ qvc) & _LOW) != 0  # no edges within a color
            vc, qvc = vc[keep], qvc[keep]
            # the vid sits in the high bits, so the larger vc is the later vid
            codes.append(np.maximum(vc, qvc) & ~_LOW | np.minimum(vc, qvc) >> 32)
        return np.concatenate(codes)


class ConflictGraph:
    def __init__(self):
        self._color_code: dict[str, int] = {}  # live stream id -> color code
        # live color code -> (stream, {route index: (route, schedule, phases,
        # its link codes, period, starts and ends as one 4 x hops array)})
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
        self._periods = np.empty(0, dtype=np.int64)  # the periods the keys rank
        # the edges, as the adjacency of the joined vertices
        self._indptr = np.zeros(1, dtype=np.int64)
        self._indices = np.empty(0, dtype=np.int64)

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
        return len(self._indices) // 2

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
        route, schedule = routes[route_index][:2]
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
        if cfg.route_index not in routes:
            links, p = self._link_code, cfg.stream.period
            rows = [(links.setdefault(k, len(links)), p, s, e) for k, s, e in cfg.schedule.entries]
            routes[cfg.route_index] = (cfg.route, cfg.schedule, set(), np.array(rows).T)
        phases = routes[cfg.route_index][2]
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
        """Add the edges of every queued vertex to the CSR. The queued rows
        are sorted on their own and merged into the sorted store, so they
        meet each other too; the pass runs in chunks of queued rows."""
        first = self._joined
        if first == self._n:
            return
        new = self._queued_rows(first)
        periods = np.unique([stream.period for stream, _ in self._colors.values()])
        if len(periods) * len(self._link_code) > _MAX_CLASSES or not (
            0 <= new["start"].min(initial=0) and new["start"].max(initial=0) <= _LOW
        ):
            raise OverflowError("the interval store key does not fit in 63 bits")
        self._joined = self._n
        if not np.array_equal(periods, self._periods):  # the keys rank the periods
            key, start = self._store["key"], self._store["start"]
            self._store["key"] = _store_keys(*_key_class(key, self._periods), start, periods)
            self._periods = periods
        new["key"] = _store_keys(new.pop("link"), new.pop("period"), new["start"], periods)
        # rows of equal key may take any order: neither the search nor its
        # edges depend on it
        order = np.argsort(new["key"])
        old = self._store
        # each sorted queued row goes after the stored rows of equal key;
        # `pos` are their rows in the merged store, the rest take the others
        pos = np.searchsorted(old["key"], new["key"][order], side="right")
        pos += np.arange(len(pos))
        queued = np.zeros(len(old["key"]) + len(pos), dtype=bool)
        queued[pos] = True
        store = {name: np.empty(len(queued), dtype=t) for name, t in _COLUMNS.items()}
        for name, col in store.items():
            col[pos], col[~queued] = new[name][order], old[name]
        del new, order, old  # free them before the pass
        self._store = store
        classes = _Classes(store, queued, periods)
        del queued
        codes = np.concatenate([
            classes.conflicts(pos[a : a + JOIN_CHUNK], store)
            for a in range(0, len(pos), JOIN_CHUNK)
        ])
        del classes, pos
        # a pair is met once per shared link, or from both sides where a joined
        # row shares its class: drop repeats (np.unique hashes, and is slower)
        codes.sort()
        keep = np.ones(len(codes), dtype=bool)
        np.not_equal(codes[1:], codes[:-1], out=keep[1:])
        codes = codes[keep]
        # each edge is two arcs, (later vid, earlier vid) and its twin; as
        # keys row << 32 | column, the sorted new arcs form ascending rows
        keys = np.concatenate([codes, codes & _LOW])
        keys[len(codes) :] <<= 32
        keys[len(codes) :] |= codes >> 32
        del codes, keep
        keys.sort()
        old = self._indices
        # old arcs before each row boundary; a row's new arcs follow its old ones
        ends = np.concatenate([self._indptr, np.full(self._n - first, len(old))])
        at = ends[(keys >> 32) + 1] + np.arange(len(keys)) if len(old) else None
        self._indptr = ends + np.searchsorted(keys, np.arange(self._n + 1) << 32)
        keys &= _LOW
        self._indices = keys
        if at is not None:
            fresh = np.zeros(len(old) + len(at), dtype=bool)
            fresh[at] = True
            self._indices = np.empty(len(fresh), dtype=np.int64)
            self._indices[at], self._indices[~fresh] = keys, old

    def _queued_rows(self, first: int) -> dict[str, np.ndarray]:
        """Store rows of the vertices from `first` on, in vid order, with
        their link code and period in place of the key: the entries of each
        one's shared phase-0 schedule, shifted by its phase."""
        color = self._column("color")[first:].astype(np.int64)
        phase = self._column("phase")[first:]
        # the queued vertices' (color, route index) pairs, one schedule each
        pairs, which = np.unique(color << 32 | self._column("route")[first:], return_inverse=True)
        occupancy = [self._colors[p >> 32][1][p & _LOW][3] for p in pairs.tolist()]
        link, period, start, end = np.concatenate(occupancy, axis=1)
        hops = np.array([o.shape[1] for o in occupancy], dtype=np.int64)
        vert, hop = _ragged(hops[which])
        entry = (np.cumsum(hops) - hops)[which][vert] + hop
        return {
            "link": link[entry], "period": period[entry], "start": start[entry] + phase[vert],
            "end": end[entry] + phase[vert], "vc": (first + vert) << 32 | color[vert],
        }

    def _flush_removals(self) -> None:
        """Drop the rows of removed streams from the vertex columns, the
        store and the CSR, and renumber the other vertices in order."""
        keep = np.isin(self._column("color"), list(self._colors))
        new_vid = np.cumsum(keep) - 1
        indptr, indices = self._indptr, self._indices
        kept, deg = keep[: self._joined], np.diff(indptr)
        # an arc stays when its column and its row stay; the arcs of the
        # removed rows are the twins of the arcs the kept rows lose
        owner, rank = _ragged(deg[~kept])
        lost = indptr[:-1][~kept][owner] + rank
        arcs = keep[indices]
        arcs[lost] = False
        deg -= np.bincount(indices[lost], minlength=len(deg))
        self._indptr = np.concatenate([[0], np.cumsum(deg[kept])])
        self._indices = new_vid[indices[arcs]]
        self._vert = {name: self._column(name)[keep] for name in _VERTEX_COLUMNS}
        self._joined = int(np.count_nonzero(kept))
        self._n = len(self._vert["color"])
        vc = self._store["vc"]
        rows = keep[vc >> 32]
        self._store = {name: col[rows] for name, col in self._store.items()}
        vc = self._store["vc"]
        vc[:] = new_vid[vc >> 32] << 32 | vc & _LOW

    # -- derived structure and metrics -------------------------------------

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency as (indptr, indices) over the vertices: the neighbours of
        v are indices[indptr[v]:indptr[v + 1]], in ascending order: the only
        edge store, kept across updates, once the queued vertices are joined."""
        self.join_queued()
        return self._indptr, self._indices

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
