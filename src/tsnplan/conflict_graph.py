"""Vertex-colored conflict graph over (stream, route, phase) configurations.

Vertices are configurations, colors are streams, and an edge joins two
differently-colored configurations whose periodically repeated frames overlap
on a shared directed link. Same-color conflicts are never materialized: the
colorful-set rule already forbids picking two vertices of one color.

Insertion only queues a vertex. `join_queued` joins every queued vertex
against the stored intervals, and against the other queued vertices, in
passes of whole queued rows, at most `JOIN_BUDGET` (row, class) pairs each.
`expand` calls it; otherwise the first read of the edges does. A removal
leaves the queued vertices queued.

The occupancy intervals are stored as flat columns sorted by (link, period,
start); the rows of one link and period form a class. A row is its key, its
end and its vertex id. The key packs the link and the period's rank above
the start, so the order is the order of one int64 column, and no other
column repeats the link, the period or the start; a row's color is its
vertex's. A change in the live streams' periods re-ranks the keys. A join
sorts only the queued rows and merges them in: one `searchsorted` of their
keys in the stored keys gives their rows, and the same rows place them in
every column.

Two intervals conflict exactly when some multiple m of g = gcd(pa, pb)
satisfies sa - eb < m < ea - sb. So the starts in a class that can conflict
with a query interval lie in one window per such m, as wide as the query
plus the class's longest interval, and `searchsorted` finds each window.
When the windows touch, or outnumber the class's rows or `MAX_WINDOWS`, the
query scans one window that spans them all instead. `overlap_modulo`
(timing), the rule above for a known gcd, is the exact filter on every
candidate, with the gcd of each query row and class computed once.

Only the queued rows search. A queued row searches every class on its link
that holds joined rows. A pair of queued rows is found from one side: in a
class of queued rows only, a row looks at the rows after it in its own
class and at the classes of shorter periods. The longer period's side needs
one or two windows per class where the shorter side would need up to
pb / pa, and an offline batch, where every row is queued, finds each pair
once per shared link. A pass's temporaries grow with its (row, class)
pairs, at most the classes on each row's link. The edges are sorted and
deduplicated once per join, wherever the passes are cut.

A vertex is a row of integer columns: color code, route index and phase.
Insertion appends the row to one flat int64 buffer; the columns take all
buffered rows in one write per column at their next read. Each live
(stream, route index) keeps its route, its phase-0 schedule and its used
phases, for `configs` and the duplicate check. A join builds the schedule
rows (link code, period, start, end) of all queued (stream, route) pairs in
one call and shifts them by each queued phase. The edges live only in the
CSR (indptr, indices) of the joined vertices. A new edge's later vid is
queued, so a join sorts the new arcs as (row, column) keys and appends them
to the old rows. Removing streams masks out their rows and arcs and
compacts the other ids in order: a vid stays valid until the next removal.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .model import Stream
from .routing import Route
# link_occupancy is not called here, but perfbench/tracing.py wraps the name
# in this namespace and fails a traced run when it is missing.
from .timing import OccupancySchedule, link_occupancy, overlap_modulo  # noqa: F401

PAGERANK_DAMPING = 0.85
PAGERANK_ITERATIONS = 4

#: windows per query interval and class before one spanning window; the budget
#: of a join pass in (row, class) pairs and of an `overlap_modulo` call in rows
MAX_WINDOWS = 64
JOIN_BUDGET = 1 << 12

#: columns of the interval store, one row per (vertex, link): the sort key,
#: which holds the link, the period and the start, the end, and the vid
_COLUMNS = {"key": np.int64, "end": np.int64, "vid": np.int64}
#: columns of a vertex: its stream's color code, its route index and phase
_VERTEX_COLUMNS = {"color": np.int32, "route": np.int32, "phase": np.int64}
#: the low 32 bits, which hold a store key's start and an edge code's earlier vid
_LOW = (1 << 32) - 1
#: the most (link, period) classes a store key can number: the keys of class
#: c lie below (c + 1) << 32, which a window search adds and must stay below
#: 2**63
_MAX_CLASSES = (1 << 31) - 1


class DuplicateConfiguration(Exception):
    pass


class Configuration(NamedTuple):
    """A stream sent on one of its candidate routes at one phase: a vertex of
    the graph, or a plan's entry. `schedule` is the phase-0 occupancy of
    (stream, route), shared by all its configurations; this one's intervals
    are shifted by `phase`. An immutable, hashable named tuple: a plan holds
    one per stream and `ConflictGraph.configs` builds one per vertex asked
    for, while expansion adds its vertices as plain tuples of these fields."""

    stream: Stream
    route_index: int
    route: Route
    phase: int
    schedule: OccupancySchedule


def _rows(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs of counts[i] positions from starts[i] on, concatenated: for
    starts indptr[vids] and counts the degrees, the CSR rows of `vids`."""
    pos = (starts - counts.cumsum() + counts).repeat(counts)
    pos += np.arange(len(pos))
    return pos


def _runs(starts: np.ndarray) -> list[tuple[int, int]]:
    """(first, end) of runs of whole items, item i's units starting at the
    ascending starts[i]: an item starting in the next block of `JOIN_BUDGET`
    units starts a run, so none is empty or over budget by more than its last."""
    block = starts // JOIN_BUDGET
    cut = (np.flatnonzero(block[1:] != block[:-1]) + 1).tolist()
    bounds = [0, *cut, len(starts)] if len(starts) else []
    return list(zip(bounds, bounds[1:]))


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
    """The (link, period) classes of a sorted store: per class its first
    row, period, key of start 0, whether it holds only queued rows, the
    classes on its link, and its `stats`: the last tick a row holds, the
    first start, the longest interval and the windows a query may search
    before one spanning window. One `searchsorted` in the store key, which
    increases through the store, finds a window inside any class."""

    def __init__(self, store: dict[str, np.ndarray], queued: np.ndarray, periods: np.ndarray):
        key = self.key = store["key"]
        cls = key >> 32
        cut = np.flatnonzero(cls[1:] != cls[:-1]) + 1
        first = self.first = np.concatenate([[0], cut])
        self.base = cls[first] << 32
        link, rank = np.divmod(cls[first], len(periods))
        self.stats = np.array([
            np.maximum.reduceat(store["end"], first) - 1, key[first] & _LOW,
            np.maximum.reduceat(store["end"] - (key & _LOW), first),
            np.minimum(np.concatenate([cut, [len(key)]]) - first, MAX_WINDOWS),
        ])
        self.period = periods[rank]
        self.only_queued = np.logical_and.reduceat(queued, first)
        # the classes on the link of class c are link_first[c] on, size[c] of them
        self.link_first = np.searchsorted(link, link)
        self.size = np.searchsorted(link, link, side="right") - self.link_first

    def conflicts(self, pos: np.ndarray, own: np.ndarray, store: dict[str, np.ndarray],
                  color: np.ndarray) -> np.ndarray:
        """Edges of the queued rows at the ascending store positions `pos`,
        of the classes `own`, to rows of other colors, as codes (later vid
        << 32 | earlier vid); `color` is the vertices' color column. A pair
        of queued rows is met once per shared link, or twice where a joined
        row shares its class. Temporaries are dropped once used."""
        n = self.size[own]  # one pair per query row and class on its link
        c, row = _rows(self.link_first[own], n), np.repeat(np.arange(len(pos)), n)
        # a queued row meets every class that holds joined rows; a queued-only
        # class of a longer period meets it from its own side
        oq = own[row]
        met = (c <= oq) | ~self.only_queued[c]
        c, oq, row = c[met], oq[met], row[met]
        g = np.gcd(self.period[oq], self.period[c])
        # in its own queued-only class a row looks only at the rows after it
        after = ((c == oq) & self.only_queued[c]) * (pos + 1)[row]
        q = np.array([store["key"][pos] & _LOW, store["end"][pos], store["vid"][pos]])
        sa, ea, qvid = q.take(row, axis=1)
        reach, smin, longest, max_windows = self.stats.take(c, axis=1)
        del oq, met, row, q
        # the multiples f * g to l * g of g that some row of the class can satisfy
        f, last = -((reach - sa) // g), (ea - smin - 1) // g
        n_win = np.maximum(last - f + 1, 0)
        # one spanning window when the windows touch or outnumber the rows
        spanning = (g <= ea - sa + longest - 1) | (n_win > max_windows)
        np.minimum(n_win, 1, out=n_win, where=spanning)
        # the window of multiple m holds the starts in [sa - m - longest + 1,
        # ea - m), a spanning one those from l * g's first to f * g's last
        edges = np.array([sa - longest + 1 - np.where(spanning, last - f, 0) * g, ea])
        del reach, smin, longest, max_windows, last, spanning
        w = np.repeat(np.arange(len(n_win)), n_win)  # the windows' pairs
        m = _rows(f, n_win)
        m *= g[w]
        edges = edges.take(w, axis=1)
        edges -= m
        np.maximum(edges, 0, out=edges)  # clipped to the class's block of keys
        np.minimum(edges, _LOW + 1, out=edges)
        edges += self.base[c[w]]
        row_lo, n_cand = bounds = np.searchsorted(self.key, edges)
        np.maximum(bounds, after[w], out=bounds)
        n_cand -= row_lo
        del n_win, f, m, edges, c, after
        # candidate x of the pass, in window i, is row x + row_lo[i] - first[i]
        first = np.cumsum(n_cand) - n_cand
        row_lo -= first
        codes = [np.empty(0, dtype=np.int64)]
        for a, b in _runs(first):
            count = n_cand[a:b]
            p = np.repeat(w[a:b], count)  # the candidates' pairs
            j = np.repeat(row_lo[a:b], count)
            j += np.arange(first[a], first[a] + len(j))
            hit = overlap_modulo(sa[p], ea[p], store["key"][j] & _LOW, store["end"][j], g[p])
            vid, qv = store["vid"][j[hit]], qvid[p[hit]]
            keep = color[vid] != color[qv]  # no edges within a color
            vid, qv = vid[keep], qv[keep]
            codes.append(np.maximum(vid, qv) << 32 | np.minimum(vid, qv))
        return np.concatenate(codes)


class ConflictGraph:
    def __init__(self):
        self._color_code: dict[str, int] = {}  # live stream id -> color code
        # live color code -> (stream, {route index: (route, schedule, phases)})
        self._colors: dict[int, tuple[Stream, dict]] = {}
        self._link_code: dict[tuple[str, str], int] = {}
        # one row per vertex, but the rows added since the last read of a
        # column wait in _pending as flat (color code, route index, phase)
        self._vert = {name: np.empty(0, dtype=t) for name, t in _VERTEX_COLUMNS.items()}
        self._pending = array("q")
        self._n = 0
        self._removed = 0
        # the intervals of the joined vertices, sorted by (link, period, start)
        self._store = {name: np.empty(0, dtype=t) for name, t in _COLUMNS.items()}
        self._periods = np.empty(0, dtype=np.int64)  # the periods the keys rank
        # the edges, as the adjacency of the joined vertices: one row each,
        # so vids from len(_indptr) - 1 on are queued
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
        return self._n + self._removed

    @property
    def edge_count(self) -> int:
        self.join_queued()
        return len(self._indices) // 2

    def _column(self, name: str) -> np.ndarray:
        if self._pending:  # the pending rows join the columns, one write each
            rows = np.frombuffer(self._pending, dtype=np.int64).reshape(-1, 3)
            self._vert = {
                k: np.concatenate([col, rows[:, i]], dtype=col.dtype, casting="same_kind")
                for i, (k, col) in enumerate(self._vert.items())
            }
            self._pending = array("q")
        return self._vert[name]

    def columns(self, stream_ids: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per vertex: the position of its stream in `stream_ids` (-1 when
        it is not listed), its route index and its phase."""
        where = {self._color_code.get(sid): i for i, sid in enumerate(stream_ids)}
        codes = sorted(self._colors)
        index = np.array([where.get(c, -1) for c in codes], dtype=np.int64)
        at = np.searchsorted(codes, self._column("color"))
        return index[at], self._column("route"), self._column("phase")

    def configs(self, vids: list[int]) -> list[Configuration]:
        """The configuration of each vertex in `vids`, in order, with each
        column gathered once."""
        out = []
        rows = (self._column(name)[vids].tolist() for name in _VERTEX_COLUMNS)
        for color, route_index, phase in zip(*rows):
            stream, routes = self._colors[color]
            route, schedule = routes[route_index][:2]
            out.append(Configuration(stream, route_index, route, phase, schedule))
        return out

    # -- mutation ----------------------------------------------------------

    def add_configuration(self, cfg: Configuration | tuple) -> int:
        """Give the configuration, a `Configuration` or the plain tuple of
        its fields, a vid and queue it for the next join. A live stream id
        keeps the stream it was first added with, and a (stream id, route
        index) its route and schedule: another one raises ValueError."""
        stream, route_index, route, phase, schedule = cfg
        code = self._color_code.get(stream.id)
        if code is None:
            # a new stream's code is the number of vertices added before it
            code = self._color_code[stream.id] = self.slot_count
            self._colors[code] = (stream, {})
        known, routes = self._colors[code]
        if known is not stream and known != stream:
            raise ValueError(
                f"{(stream.id, route_index, phase)}: stream {stream} differs from the added {known}"
            )
        entry = routes.get(route_index)
        if entry is None:
            entry = routes[route_index] = (route, schedule, set())
        elif (entry[0] is not route or entry[1] is not schedule) and entry[:2] != (route, schedule):
            raise ValueError(
                f"{(stream.id, route_index, phase)}: route {route} or its schedule differs "
                "from the added one"
            )
        if phase in entry[2]:
            raise DuplicateConfiguration(f"{(stream.id, route_index, phase)} already present")
        entry[2].add(phase)
        self._pending.extend((code, route_index, phase))
        vid = self._n
        self._n = vid + 1
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
        meet each other too; each pass takes whole queued rows."""
        first = len(self._indptr) - 1
        if first == self._n:
            return
        new = self._queued_rows(first)
        periods = np.unique([stream.period for stream, _ in self._colors.values()])
        if len(periods) * len(self._link_code) > _MAX_CLASSES or not (
            0 <= new["start"].min(initial=0) and new["start"].max(initial=0) <= _LOW
        ):
            raise OverflowError("the interval store key does not fit in 63 bits")
        if not np.array_equal(periods, self._periods):  # the keys rank the periods
            key = self._store["key"]
            self._store["key"] = _store_keys(*_key_class(key, self._periods), key & _LOW, periods)
            self._periods = periods
        new["key"] = _store_keys(new.pop("link"), new.pop("period"), new.pop("start"), periods)
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
        own = np.searchsorted(classes.first, pos, side="right") - 1
        # a row meets at most the classes on its link, so `step` rows make at
        # most JOIN_BUDGET pairs; a row with more makes a pass of its own
        step, color = max(JOIN_BUDGET // int(classes.size.max()), 1), self._column("color")
        codes = [classes.conflicts(pos[a : a + step], own[a : a + step], store, color)
                 for a in range(0, len(pos), step)]
        del classes, pos, own  # before the codes are joined
        codes = np.concatenate(codes)
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
        # the schedule rows of every pair, built in one go
        entries, hops, periods = [], [], []
        for p in pairs.tolist():
            stream, routes = self._colors[p >> 32]
            schedule = routes[p & _LOW][1]
            entries += schedule.entries
            hops.append(len(schedule.entries))
            periods.append(stream.period)
        link_keys, start, end = zip(*entries)
        links = self._link_code
        link = np.array([links.setdefault(k, len(links)) for k in link_keys], dtype=np.int64)
        start, end = np.array(start, dtype=np.int64), np.array(end, dtype=np.int64)
        hops = np.array(hops, dtype=np.int64)
        vert = np.repeat(np.arange(len(which)), hops[which])
        pair = which[vert]
        entry = _rows((np.cumsum(hops) - hops)[which], hops[which])
        return {
            "link": link[entry], "period": np.array(periods, dtype=np.int64)[pair],
            "start": start[entry] + phase[vert], "end": end[entry] + phase[vert],
            "vid": first + vert,
        }

    def _flush_removals(self) -> None:
        """Drop the rows of removed streams from the vertex columns, the
        store and the CSR, and renumber the other vertices in order."""
        keep = np.isin(self._column("color"), list(self._colors))
        new_vid = np.cumsum(keep) - 1
        indptr, indices = self._indptr, self._indices
        kept, deg = keep[: len(indptr) - 1], np.diff(indptr)
        # an arc stays when its column and its row stay; the arcs of the
        # removed rows are the twins of the arcs the kept rows lose
        lost = _rows(indptr[:-1][~kept], deg[~kept])
        arcs = keep[indices]
        arcs[lost] = False
        deg -= np.bincount(indices[lost], minlength=len(deg))
        self._indptr = np.concatenate([[0], np.cumsum(deg[kept])])
        self._indices = new_vid[indices[arcs]]
        self._vert = {name: col[keep] for name, col in self._vert.items()}
        self._removed += self._n - len(self._vert["color"])
        self._n = len(self._vert["color"])
        rows = keep[self._store["vid"]]
        self._store = {name: col[rows] for name, col in self._store.items()}
        self._store["vid"] = new_vid[self._store["vid"]]

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
