"""Independent-colorful-set solving and the per-iteration planning pipeline.

The greedy solver always resolves the color (stream) with the fewest
remaining feasible vertices first, then picks that color's feasible vertex
with the lowest degree among feasible vertices. Previously admitted streams
are either pinned to their current configuration (defensive planning) or
required but free to be reconfigured (offensive planning); the plan with
fewer rejected new streams wins, ties going to the defensive plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random

import numpy as np

from .conflict_graph import Configuration, ConflictGraph
from .expansion import ExpansionParams, expand
from .model import IterationState, Network, Stream, StreamBatch, hypercycle
from .routing import Unreachable, candidate_routes
from .timing import ORACLE_BOUND, OracleBoundExceeded, link_occupancy

_FREE, _EXCLUDED, _SELECTED = 0, 1, 2


class RequiredColorUnsatisfiable(Exception):
    def __init__(self, color: str):
        super().__init__(f"required stream {color!r} has no feasible configuration left")
        self.color = color


@dataclass
class TrafficPlan:
    iteration: int
    assignments: dict[str, Configuration] = field(default_factory=dict)


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
) -> tuple[dict[str, int], set[str]]:
    """Greedy fewest-feasible-first colorful-set search.

    Returns (stream id -> selected vertex id, rejected stream ids). Raises
    RequiredColorUnsatisfiable when a required color runs out of feasible
    vertices. Pinned colors are selected first, in the given order.
    """
    pinned = pinned or []
    colors = list(dict.fromkeys(required + optional))
    n_colors = len(colors)
    cindex = {c: i for i, c in enumerate(colors)}
    n_slots = g.slot_count
    indptr, indices = g.csr()
    state = np.zeros(n_slots, dtype=np.int8)

    color_vids = [np.array(g.vids_of(c), dtype=np.int64) for c in colors]
    col_of = np.full(n_slots, -1, dtype=np.int64)
    for i, vids in enumerate(color_vids):
        col_of[vids] = i
    feas = np.array([len(v) for v in color_vids], dtype=np.int64)
    total = feas.copy()
    rank = np.empty(n_colors, dtype=np.int64)  # tie-break by stream id
    for r, c in enumerate(sorted(colors)):
        rank[cindex[c]] = r
    required_mask = np.zeros(n_colors, dtype=bool)
    for c in required:
        required_mask[cindex[c]] = True
    resolved = np.zeros(n_colors, dtype=bool)
    # lexicographic (feas, total, rank) packed into one sortable integer
    m2 = n_colors + 1
    m1 = m2 * (int(total.max(initial=0)) + 1)
    selected: dict[str, int] = {}
    rejected: set[str] = set()

    def exclude_free(vids: np.ndarray) -> None:
        free = vids[state[vids] == _FREE]
        state[free] = _EXCLUDED
        ci = col_of[free]
        ci = ci[ci >= 0]
        if len(ci):
            np.subtract.at(feas, ci, 1)

    def select(ci: int, vid: int) -> None:
        state[vid] = _SELECTED
        selected[colors[ci]] = vid
        resolved[ci] = True
        siblings = color_vids[ci]
        exclude_free(siblings[siblings != vid])
        exclude_free(indices[indptr[vid] : indptr[vid + 1]])

    for color, vid in pinned:
        if state[vid] != _FREE:
            raise RequiredColorUnsatisfiable(color)
        select(cindex[color], vid)

    n_resolved = int(resolved.sum())
    while n_resolved < n_colors:
        key = feas * m1 + total * m2 + rank
        key[resolved] = np.iinfo(np.int64).max
        ci = int(np.argmin(key))
        if feas[ci] == 0:
            if required_mask[ci]:
                raise RequiredColorUnsatisfiable(colors[ci])
            rejected.add(colors[ci])
            resolved[ci] = True
            n_resolved += 1
            continue
        cands = color_vids[ci]
        cands = cands[state[cands] == _FREE]
        best_vid = None
        best_key = None
        for v in cands:
            nb = indices[indptr[v] : indptr[v + 1]]
            feasdeg = int(np.count_nonzero(state[nb] == _FREE))
            cfg = g.config(int(v))
            vkey = (feasdeg, cfg.phase, cfg.route_index)
            if best_key is None or vkey < best_key:
                best_key, best_vid = vkey, int(v)
        select(ci, best_vid)
        n_resolved += 1

    return selected, rejected


def defensive_plan(
    g: ConflictGraph,
    survivors: dict[str, Configuration],
    new_ids: list[str],
) -> tuple[dict[str, int], set[str]]:
    """Keep old streams on their current configuration, place new streams
    around them."""
    pinned = []
    for sid, cfg in survivors.items():
        vid = g.find_vid(sid, cfg.route_index, cfg.phase)
        if vid is None:
            raise RuntimeError(f"pinned configuration of {sid!r} missing from graph")
        pinned.append((sid, vid))
    return gfh_solve(g, required=list(survivors), optional=new_ids, pinned=pinned)


def offensive_plan(
    g: ConflictGraph,
    survivors: dict[str, Configuration],
    new_ids: list[str],
) -> tuple[dict[str, int], set[str]] | None:
    """Full re-solve with old streams required but reconfigurable; None when
    some required stream cannot be satisfied."""
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

    Raises OracleBoundExceeded, before building a link's intervals, when
    they would number more than ORACLE_BOUND.

    Deliberately shares no logic with the pairwise conflict predicate.
    """
    problems: list[str] = []
    per_link: dict[tuple[str, str], list[tuple[int, int, str, int]]] = {}
    late = False
    for sid, cfg in plan.assignments.items():
        stream = cfg.stream
        sched = link_occupancy(net, stream, cfg.route, cfg.phase)
        if sched.arrival > stream.period:
            late = True
            problems.append(
                f"deadline miss: {sid} arrives at {sched.arrival} > {stream.period}"
            )
        for key, s, e in sched.entries:
            per_link.setdefault(key, []).append((s, e, sid, stream.period))
    for key, entries in per_link.items():
        h = hypercycle(period for _, _, _, period in entries)
        count = sum(h // period for _, _, _, period in entries)
        if count > ORACLE_BOUND:
            raise OracleBoundExceeded(
                f"link {key}: {count} intervals over hypercycle {h} exceed "
                f"oracle bound {ORACLE_BOUND}"
            )
        intervals = [
            (s + off, e + off, sid)
            for s, e, sid, period in entries
            for off in range(0, h, period)
        ]
        if late:  # fold each interval into [0, h), splitting one that crosses h
            folded = []
            for s, e, sid in intervals:
                s0 = s % h
                e0 = s0 + e - s
                folded.append((s0, min(e0, h), sid))
                if e0 > h:
                    folded.append((0, e0 - h, sid))
            intervals = folded
        intervals.sort()
        for (s1, e1, id1), (s2, e2, id2) in zip(intervals, intervals[1:]):
            if s2 < e1:
                problems.append(
                    f"overlap on link {key}: {id1} and {id2} "
                    f"both occupy ticks [{s2}, {min(e1, e2)})"
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
        for s in batch.add:
            try:
                routes[s.id] = candidate_routes(self.net, s.src, s.dst, self.k_routes)
            except Unreachable:
                pass
        routing_s = time.perf_counter() - t_route
        routable = StreamBatch(
            batch.iteration, [s for s in batch.add if s.id in routes], batch.delete
        )

        for sid in batch.delete:
            g.remove_stream(sid)
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
        offensive = offensive_plan(g, survivors, list(new_streams))
        selection, rejected = choose_plan(defensive, offensive)
        assignments = {sid: g.config(vid) for sid, vid in selection.items()}
        solving_s = time.perf_counter() - t_solve

        for sid in rejected:
            g.remove_stream(sid)

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
