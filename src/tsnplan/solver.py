"""Independent-colorful-set solving and the per-iteration planning pipeline.

The greedy solver always resolves the color (stream) with the fewest
remaining feasible vertices first, then picks that color's feasible vertex
with the lowest degree among feasible vertices. Previously admitted streams
are either pinned to their current configuration (defensive planning) or
required but free to be reconfigured (offensive planning); the plan with
fewer rejected new streams wins, ties going to the defensive plan, so the
offensive solve runs only when survivors exist and a new stream was rejected.

A solve's numpy work scales with its colors, not with their vertices: all
pinned vertices are selected in one pass, and each later color step gathers
the neighbour rows of the color's still-free vertices, in a candidate order
built once per solve, and counts them with one bincount. So a solve's extra
memory scales with one color's arcs, not with the graph's.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from random import Random

import numpy as np

from .conflict_graph import Configuration, ConflictGraph, _rows
from .expansion import ExpansionParams, expand
from .model import MAX_PERIOD, Network, Stream, StreamBatch
from .routing import Unreachable, candidate_routes
from .timing import ORACLE_BOUND, OracleBoundExceeded, link_occupancy

_RESOLVED = np.iinfo(np.int64).max  # color key of a selected or rejected color


class RequiredColorUnsatisfiable(Exception):
    def __init__(self, color: str):
        super().__init__(f"required stream {color!r} has no feasible configuration left")
        self.color = color


@dataclass
class TrafficPlan:
    iteration: int
    assignments: dict[str, Configuration] = field(default_factory=dict)


@dataclass
class IterationState:
    """Admitted streams and their current plan, carried across iterations."""

    plan: TrafficPlan
    admitted: dict[str, Stream] = field(default_factory=dict)


@dataclass
class IterationMetrics:
    iteration: int
    strategy: str
    scheme: str
    cps: int
    rejected: int
    expansion_ms: float
    solving_ms: float
    total_ms: float
    vertices: int
    edges: int
    routing_ms: float


def gfh_solve(
    g: ConflictGraph,
    required: list[str],
    optional: list[str],
    pinned: list[tuple[str, int]] | None = None,
    columns: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[dict[str, int], set[str]]:
    """Greedy fewest-feasible-first colorful-set search.

    Returns (stream id -> selected vertex id, rejected stream ids). Raises
    RequiredColorUnsatisfiable when a required color runs out of feasible
    vertices. `columns`, when given, is `g.columns(required + optional)`.

    Pinned colors, each pinned to one of its own vertices, are selected
    first and all at once. When an earlier pin already rules a pinned
    vertex out (the vertex neighbours an earlier pin, or its color was
    pinned before), the first such color in pin order raises.

    The other colors are resolved one per step, fewest feasible vertices
    first. Each color's key (feasible, total, rank by stream id) lives in
    one integer array that every exclusion updates in place. The candidate
    order is built once per solve, after pinning: each open color's
    vertices sorted by (phase, route index, vid). A step gathers the
    neighbour rows of the color's still-free vertices in that order, counts
    their free neighbours with one bincount and takes the first vertex of
    least count, i.e. the least (feasible degree, phase, route index), ties
    to the lowest vid.
    """
    pinned = pinned or []
    colors = list(dict.fromkeys(required + optional))
    n_colors = len(colors)
    cindex = {c: i for i, c in enumerate(colors)}
    required_set = set(required)
    indptr, indices = g.csr()
    col_of, route, phase = columns if columns is not None else g.columns(colors)
    n = len(col_of)
    free = np.ones(n, dtype=bool)
    # uncolored vertices (col_of -1) belong to a spare last slot
    slot = np.where(col_of < 0, n_colors, col_of)
    counts = np.bincount(slot, minlength=n_colors + 1)
    rank = np.empty(n_colors, dtype=np.int64)
    rank[sorted(range(n_colors), key=colors.__getitem__)] = np.arange(n_colors)
    # lexicographic (feasible, total, rank) packed into one sortable integer;
    # a color's feasible count starts at its total
    m2 = n_colors + 1
    m1 = m2 * (int(counts[:n_colors].max(initial=0)) + 1)
    key = counts * (m1 + m2)
    color_key = key[:n_colors]
    color_key += rank
    selected: dict[str, int] = {}
    rejected: set[str] = set()

    if pinned:
        pin_colors, pin_vids = zip(*pinned)
        pin_c = np.array([cindex[c] for c in pin_colors])
        pin_v = np.array(pin_vids)
        k = len(pinned)
        at = np.arange(k)
        # blocker[v]: the first pin that takes v out, k when none does
        first = np.full(n_colors + 1, k)
        np.minimum.at(first, pin_c, at)
        blocker = first[slot]  # a pinned color's vertices
        deg = indptr[pin_v + 1] - indptr[pin_v]
        np.minimum.at(blocker, indices[_rows(indptr[pin_v], deg)], np.repeat(at, deg))
        late = np.flatnonzero(blocker[pin_v] < at)
        if len(late):
            raise RequiredColorUnsatisfiable(pin_colors[late[0]])
        out = blocker < k
        free[out] = False
        key -= m1 * np.bincount(slot[out], minlength=n_colors + 1)
        color_key[pin_c] = _RESOLVED
        selected.update(pinned)

    # the open colors' vertices by (color, phase, route, vid), sorted stably
    # on one int64 key; phases are below 2**31, like periods
    is_open = np.append(color_key != _RESOLVED, False)
    cand = np.flatnonzero(is_open[slot])
    within = phase[cand] * (int(route.max(initial=0)) + 1) + route[cand]
    order_key = slot[cand] * (int(within.max(initial=0)) + 1) + within
    cand = cand[np.argsort(order_key, kind="stable")]
    # each candidate's row start and degree, in candidate order
    starts = indptr[cand]
    deg = indptr[cand + 1] - starts
    bounds = [0, *np.cumsum(np.where(is_open, counts, 0)[:n_colors]).tolist()]

    for _ in range(n_colors - len(selected)):
        ci = int(color_key.argmin())
        if color_key[ci] < m1:  # no feasible vertex left
            if colors[ci] in required_set:
                raise RequiredColorUnsatisfiable(colors[ci])
            rejected.add(colors[ci])
            color_key[ci] = _RESOLVED
            continue
        a, b = bounds[ci], bounds[ci + 1]
        seg = cand[a:b]
        live = free[seg].nonzero()[0]  # only free vertices are candidates
        d = deg[a:b][live]
        nb = indices[_rows(starts[a:b][live], d)]
        feasdeg = np.bincount(np.arange(len(d)).repeat(d), free[nb], len(d))
        vid = int(seg[live[feasdeg.argmin()]])
        selected[colors[ci]] = vid
        color_key[ci] = _RESOLVED
        # one exclusion pass: the color's vertices, then the neighbours still
        # free, each counted against its color's key
        free[seg] = False
        nb = indices[indptr[vid] : indptr[vid + 1]]
        nb = nb[free[nb]]
        free[nb] = False
        np.subtract.at(key, slot[nb], m1)

    return selected, rejected


def defensive_plan(
    g: ConflictGraph,
    survivors: dict[str, Configuration],
    new_ids: list[str],
) -> tuple[dict[str, int], set[str]]:
    """Keep old streams on their current configuration, place new streams
    around them."""
    columns = col_of, route, phase = g.columns(list(survivors) + new_ids)
    # new streams' vertices, and through the last entry those of other
    # streams, look up -1
    other = [-1] * (len(new_ids) + 1)
    want_route = np.array([cfg.route_index for cfg in survivors.values()] + other)
    want_phase = np.array([cfg.phase for cfg in survivors.values()] + other)
    hit = np.flatnonzero((route == want_route[col_of]) & (phase == want_phase[col_of]))
    vid_of = dict(zip(col_of[hit].tolist(), hit.tolist()))
    pinned = []
    for i, sid in enumerate(survivors):
        if i not in vid_of:
            raise RuntimeError(f"pinned configuration of {sid!r} missing from graph")
        pinned.append((sid, vid_of[i]))
    return gfh_solve(
        g, required=list(survivors), optional=new_ids, pinned=pinned, columns=columns
    )


def offensive_plan(
    g: ConflictGraph,
    survivors: dict[str, Configuration],
    new_ids: list[str],
) -> tuple[dict[str, int], set[str]] | None:
    """Full re-solve with old streams required but reconfigurable; None when
    some required stream cannot be satisfied, and at once with no survivors
    (given none when the defensive plan rejected nothing): the solve would
    repeat the defensive one, or could not reject fewer than zero streams."""
    if not survivors:
        return None
    try:
        return gfh_solve(g, required=list(survivors), optional=new_ids, pinned=None)
    except RequiredColorUnsatisfiable:
        return None


def choose_plan(defensive, offensive):
    """The result rejecting fewer new streams; ties favor the defensive plan
    (no reconfigurations)."""
    if offensive is not None and len(offensive[1]) < len(defensive[1]):
        return offensive
    return defensive


def validate_plan(net: Network, plan: TrafficPlan) -> list[str]:
    """End-to-end oracle: recompute all occupancies and sweep each link over
    the hypercycle of the streams crossing it for double bookings and
    deadline misses.

    Only streams sharing a link can collide on it. Without a deadline miss
    every interval lies inside its stream's period, so repeating it over its
    link's hypercycle covers every wrap-around on that link. A late frame's
    repetitions can run past the hypercycle's end; they are folded back into
    it, so a late stream's collisions are reported along with its miss.

    One sweep covers every link: each repetition is a row of int64 arrays,
    the rows are sorted by (link, start, end, stream id), and each row is
    compared with the next one on its link. Deadline misses come first, in
    assignment order, then overlaps per link in order of the link's first
    appearance.

    Raises OracleBoundExceeded, before building any interval, when a link's
    intervals would number more than ORACLE_BOUND, or when a late frame,
    folded into its link's hypercycle, would end past tick 2**62. Each
    link's hypercycle and interval count are computed exactly, with Python
    ints.

    Deliberately shares no logic with the pairwise conflict predicate.
    """
    problems: list[str] = []
    entries = []  # (link key, start, end) of every assignment, in order
    hops, periods = [], []
    late = False
    for sid, cfg in plan.assignments.items():
        period = cfg.stream.period
        sched = link_occupancy(net, cfg.stream, cfg.route, cfg.phase)
        if sched.arrival > period:
            late = True
            problems.append(f"deadline miss: {sid} arrives at {sched.arrival} > {period}")
        entries += sched.entries
        hops.append(len(sched.entries))
        periods.append(period)
    if not entries:
        return problems
    keys = [key for key, _, _ in entries]
    start = [s for _, s, _ in entries]
    end = [e for _, _, e in entries]
    # a link's code is its rank of first appearance
    codes = {key: code for code, key in enumerate(dict.fromkeys(keys))}
    link = np.array(list(map(codes.__getitem__, keys)))
    period = np.repeat(periods, hops)
    names = sorted(plan.assignments)  # a stream's code is its rank in here
    rank = {sid: r for r, sid in enumerate(names)}
    who = np.repeat([rank[sid] for sid in plan.assignments], hops)

    # each link's distinct periods, and how many of its entries have each
    pair, mult = np.unique(link * MAX_PERIOD + period, return_counts=True)
    pairs = list(zip(*(a.tolist() for a in np.divmod(pair, MAX_PERIOD)), mult.tolist()))
    hyper = [1] * len(codes)
    for code, p, _ in pairs:
        hyper[code] = math.lcm(hyper[code], p)
    count = [0] * len(codes)
    for code, p, m in pairs:
        count[code] += hyper[code] // p * m
    for key, code in codes.items():
        if count[code] > ORACLE_BOUND:
            raise OracleBoundExceeded(
                f"link {key}: {count[code]} intervals over hypercycle {hyper[code]} "
                f"exceed oracle bound {ORACLE_BOUND}"
            )

    h = np.array(hyper)[link]
    if late:  # a late start can be any int: fold it into [0, h) to fit an int64
        folded = [s % q for s, q in zip(start, h.tolist())]
        end = [f + e - s for f, s, e in zip(folded, start, end)]
        start = folded
        if max(end) >= 2**62:  # a frame of a plan file's size can be that long
            raise OracleBoundExceeded(f"a late frame ends at tick {max(end)} past 2**62")
    # entry i repeated h // period times, each repetition one period later
    reps = h // period
    entry = np.arange(len(reps)).repeat(reps)
    off = np.arange(len(entry)) - (reps.cumsum() - reps)[entry]
    off *= period[entry]
    start = np.array(start)[entry] + off
    end = np.array(end)[entry] + off
    link, who = link[entry], who[entry]
    if late:  # fold each interval into [0, h), splitting one that crosses h
        h = h[entry]
        end -= start
        start %= h
        end += start
        cross = np.flatnonzero(end > h)
        link = np.concatenate((link, link[cross]))
        who = np.concatenate((who, who[cross]))
        start = np.concatenate((start, np.zeros_like(cross)))
        end = np.concatenate((np.minimum(end, h), end[cross] - h[cross]))

    # sorted by (link, start, end, stream), on one int64 key where they fit;
    # rows of equal key are equal, so their order does not matter
    dur = end - start
    span = (len(codes), int(start.max()) + 1, int(dur.max()) + 1, len(names))
    if math.prod(span) <= 2**63:
        packed = ((link * span[1] + start) * span[2] + dur) * span[3] + who
        order = packed.argsort()
    else:
        order = np.lexsort((who, end, start, link))
    link, start, end, who = link[order], start[order], end[order], who[order]
    hit = np.flatnonzero((link[1:] == link[:-1]) & (start[1:] < end[:-1]))
    link_keys = list(codes)
    for code, id1, id2, s2, e in zip(
        link[hit].tolist(), who[hit].tolist(), who[hit + 1].tolist(),
        start[hit + 1].tolist(), np.minimum(end[hit], end[hit + 1]).tolist(),
    ):
        problems.append(
            f"overlap on link {link_keys[code]}: {names[id1]} and {names[id2]} "
            f"both occupy ticks [{s2}, {e})"
        )
    return problems


class Planner:
    """Drives the iteration pipeline and carries graph + state across
    dynamic updates."""

    def __init__(
        self,
        net: Network,
        params: ExpansionParams,
        k_routes: int = 2,
    ):
        self.net = net
        self.params = params
        self.k_routes = k_routes
        self.rng = Random(params.rng_seed)
        self.graph = ConflictGraph()
        self.state = IterationState(plan=TrafficPlan(-1))

    def iterate(self, batch: StreamBatch) -> IterationMetrics:
        t0 = time.perf_counter()
        g = self.graph
        state = self.state
        batch.check(set(state.admitted))
        # routes are computed before the graph changes; a stream without one
        # is rejected on its own and takes no share of the budget
        t_route = time.perf_counter()
        routes = {}
        # the batch's destinations, relaxed together by the first search; each
        # one's reverse distance lives for this batch only
        reverse = dict.fromkeys(s.dst for s in batch.add)
        for s in batch.add:
            try:
                routes[s.id] = candidate_routes(
                    self.net, s.src, s.dst, self.k_routes, reverse=reverse
                )
            except Unreachable:
                pass
        del reverse
        routing_s = time.perf_counter() - t_route
        routable = StreamBatch(
            batch.iteration, [s for s in batch.add if s.id in routes], batch.delete
        )

        g.remove_streams(batch.delete)
        deleted = set(batch.delete)
        survivors = {
            sid: state.plan.assignments[sid]
            for sid in state.admitted
            if sid not in deleted
        }
        new_streams = {s.id: s for s in routable.add}
        live = [state.admitted[sid] for sid in survivors] + routable.add
        t_expand = time.perf_counter()
        expand(g, routable, self.params, self.net, routes, live, self.rng)
        expansion_s = time.perf_counter() - t_expand
        # graph size as offered to the solver, before rejected streams are purged
        vertices, edges = g.vertex_count, g.edge_count

        t_solve = time.perf_counter()
        defensive = defensive_plan(g, survivors, list(new_streams))
        offensive = offensive_plan(g, survivors if defensive[1] else {}, list(new_streams))
        selection, rejected = choose_plan(defensive, offensive)
        # a survivor the plan keeps on its pinned vertex keeps its configuration
        pinned = defensive[0]
        fresh = {
            sid: vid for sid, vid in selection.items()
            if sid not in survivors or vid != pinned[sid]
        }
        fresh = dict(zip(fresh, g.configs(list(fresh.values()))))
        assignments = {sid: fresh.get(sid) or survivors[sid] for sid in selection}
        solving_s = time.perf_counter() - t_solve

        g.remove_streams(rejected)

        state.admitted = {
            **{sid: state.admitted[sid] for sid in survivors},
            **{sid: new_streams[sid] for sid in new_streams if sid not in rejected},
        }
        state.plan = TrafficPlan(batch.iteration, assignments)

        total_s = time.perf_counter() - t0
        return IterationMetrics(
            iteration=batch.iteration,
            strategy=self.params.strategy,
            scheme=self.params.scheme,
            cps=self.params.cps,
            rejected=len(rejected) + len(batch.add) - len(routable.add),
            expansion_ms=expansion_s * 1000.0,
            solving_ms=solving_s * 1000.0,
            total_ms=total_s * 1000.0,
            vertices=vertices,
            edges=edges,
            routing_ms=routing_s * 1000.0,
        )
