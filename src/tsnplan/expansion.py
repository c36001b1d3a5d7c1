"""Conflict graph expansion: which configurations to add for new streams.

Two orthogonal choices: the enumeration scheme (deterministic phase ladder
vs uniformly random phases per route) and the budget distribution strategy
(homogeneous split vs one of three heterogeneous formulas). Budgets are
computed with exact rationals and integerized by largest remainder so the
distributed totals are preserved deterministically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from . import timing
from .conflict_graph import Configuration, ConflictGraph, NoVertices
from .model import Network, Stream, StreamBatch, traffic_volume
from .routing import Route

SCHEMES = ("deterministic", "randomized")
STRATEGIES = ("homogeneous", "traffic-volume", "avg-degree", "page-rank")

#: simplified MTU used by the traffic-volume budget formula, bytes
MTU = 1500


@dataclass
class ExpansionParams:
    cps: int
    alpha: int = 5
    scheme: str = "randomized"
    strategy: str = "homogeneous"
    rng_seed: int = 0

    def __post_init__(self):
        if self.cps < 1:
            raise ValueError("cps must be >= 1")
        if not 1 <= self.alpha <= self.cps:
            raise ValueError("alpha must satisfy 1 <= alpha <= cps")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")


@dataclass
class ExpansionReport:
    vertices_added: int = 0
    budgets: dict[str, int] = field(default_factory=dict)
    surplus: dict[str, int] = field(default_factory=dict)  # budget a stream could not use


def global_budget(cps: int, live_stream_count: int) -> int:
    """Total vertex allowance for the iteration."""
    return cps * live_stream_count


def remaining_budget(vbar: int, g: ConflictGraph, batch: StreamBatch, alpha: int) -> int:
    """Freely disposable configurations once surviving vertices and the base
    budgets of the new streams are accounted; clamped at 0."""
    return max(0, vbar - g.vertex_count - len(batch.add) * alpha)


def delta_75(new_streams: list[Stream], net: Network) -> int:
    """Phase step for the deterministic ladder: nearest-rank 75th percentile
    of the new streams' source-link transmission times."""
    if not new_streams:
        raise ValueError("delta_75 of empty batch")
    times = []
    for s in new_streams:
        out = net.out_links(s.src)
        if not out:
            raise ValueError(f"stream source {s.src!r} has no egress link")
        times.append(timing.transmission_time(s.size, out[0].rate))
    times.sort()
    rank = math.ceil(0.75 * len(times))
    return times[rank - 1]


def deterministic_enumeration(
    max_phases: list[int],
    budget: int,
    delta: int,
    exclude: set[tuple[int, int]] | None = None,
) -> list[tuple[int, int]]:
    """(route index, phase) ladder: all routes at phi=0, then phi=delta, ...
    Combinations past a route's max phase are skipped without consuming
    budget; stops when every route's ladder is exhausted."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    exclude = exclude or set()
    out: list[tuple[int, int]] = []
    level = 0
    while len(out) < budget:
        phi = level * delta
        if all(phi > mp for mp in max_phases):
            break
        for ri, mp in enumerate(max_phases):
            if phi > mp or (ri, phi) in exclude:
                continue
            out.append((ri, phi))
            if len(out) == budget:
                break
        level += 1
    return out


def randomized_enumeration(
    max_phases: list[int],
    budget: int,
    rng: Random,
    exclude: set[tuple[int, int]] | None = None,
) -> list[tuple[int, int]]:
    """Equal share of the budget per candidate route, phases drawn uniformly
    without replacement from [0, max phase]. A route whose feasible phase
    pool is smaller than its share hands the shortfall to the other routes
    in candidate order.

    A route's pool is never built: the draw picks ranks among its unused
    phases, which `random.sample` maps to the same elements it would pick
    from the pool as a list."""
    exclude = exclude or set()
    m = len(max_phases)
    used = [
        sorted(phi for (i, phi) in exclude if i == ri and 0 <= phi <= mp)
        for ri, mp in enumerate(max_phases)
    ]
    pool_sizes = [max(0, mp + 1 - len(u)) for mp, u in zip(max_phases, used)]
    shares = [budget // m + (1 if i < budget % m else 0) for i in range(m)]
    alloc = [min(sh, size) for sh, size in zip(shares, pool_sizes)]
    leftover = budget - sum(alloc)
    for i in range(m):
        if leftover == 0:
            break
        extra = min(leftover, pool_sizes[i] - alloc[i])
        alloc[i] += extra
        leftover -= extra
    out: list[tuple[int, int]] = []
    for ri in range(m):
        if alloc[ri]:
            for rank in rng.sample(range(pool_sizes[ri]), alloc[ri]):
                out.append((ri, _unused_phase(rank, used[ri])))
    return out


def _unused_phase(rank: int, used: list[int]) -> int:
    """The phase of the given rank among those not in sorted `used`."""
    phi = rank
    for u in used:
        if u > phi:
            break
        phi += 1
    return phi


def _largest_remainder(raws, total: int, order: list[str]) -> dict[str, int]:
    """Integerize nonnegative raw shares so the integer sum equals `total`
    (assumes the raw sum is `total`). Ties go to earlier batch positions."""
    floors = {sid: int(math.floor(raws[sid])) for sid in order}
    remaining = total - sum(floors.values())
    by_frac = sorted(
        range(len(order)), key=lambda i: (-(raws[order[i]] - floors[order[i]]), i)
    )
    for i in by_frac[:remaining]:
        floors[order[i]] += 1
    return floors


def _uniform_split(total: int, order: list[str]) -> dict[str, int]:
    n = len(order)
    return {sid: total // n + (1 if i < total % n else 0) for i, sid in enumerate(order)}


def budget_homogeneous(batch: StreamBatch, vbar: int, g: ConflictGraph) -> dict[str, int]:
    """Even split of the free vertex allowance over the new streams."""
    order = [s.id for s in batch.add]
    if not order:
        return {}
    avail = max(0, vbar - g.vertex_count)
    return _uniform_split(avail, order)


def raw_traffic_volume(batch: StreamBatch, r_i: int, all_streams: list[Stream]):
    """Exact raw extras of the traffic-volume formula, or None when the
    denominator degenerates (every new stream at maximal volume)."""
    vbar = Fraction(MTU, min(s.period for s in all_streams))
    vols = {s.id: traffic_volume(s) for s in batch.add}
    denom = vbar * len(batch.add) - sum(vols.values())
    if denom == 0:
        return None
    return {s.id: (vbar - vols[s.id]) / denom * r_i for s in batch.add}


def budget_traffic_volume(
    batch: StreamBatch, r_i: int, alpha: int, all_streams: list[Stream]
) -> dict[str, int]:
    """Extras inversely proportional to traffic volume, plus the base budget."""
    order = [s.id for s in batch.add]
    raws = raw_traffic_volume(batch, r_i, all_streams)
    if raws is None:
        extras = _uniform_split(r_i, order)
    else:
        extras = _largest_remainder(raws, r_i, order)
    return {sid: extras[sid] + alpha for sid in order}


def _metric_budget(metrics: dict, r_i: int, order: list[str]) -> dict[str, int]:
    """Shared shape of the avg-degree and page-rank formulas: extras
    proportional to the distance below the hardest stream's metric.

    Near-equal float totals count as degenerate and split evenly. An exact
    nonzero average-degree denominator is at least 1/lcm of the streams'
    vertex counts, which are at most alpha when the budget is computed, so
    for alpha <= 28 it always clears the tolerance."""
    top = max(metrics.values())
    denom = top * len(order) - sum(metrics.values())
    if abs(denom) < 1e-12:
        return _uniform_split(r_i, order)
    raws = {sid: (top - metrics[sid]) / denom * r_i for sid in order}
    return _largest_remainder(raws, r_i, order)


def _metric_or_zero(metric, order: list[str]) -> dict:
    """metric(stream id) for each stream, 0 for a stream without vertices."""
    out = {}
    for sid in order:
        try:
            out[sid] = metric(sid)
        except NoVertices:
            out[sid] = 0
    return out


def budget_avg_degree(batch: StreamBatch, r_i: int, g: ConflictGraph) -> dict[str, int]:
    """Step-two budgets from per-stream average vertex degree after the base
    expansion; base budgets are already placed, so no alpha term."""
    order = [s.id for s in batch.add]
    return _metric_budget(_metric_or_zero(g.avg_degree, order), r_i, order)


def budget_page_rank(batch: StreamBatch, r_i: int, g: ConflictGraph) -> dict[str, int]:
    """Like budget_avg_degree but with 4-iteration page-rank stream scores."""
    order = [s.id for s in batch.add]
    ranks = _metric_or_zero(functools.partial(g.stream_rank, g.page_rank()), order)
    return _metric_budget(ranks, r_i, order)


def expand(
    g: ConflictGraph,
    batch: StreamBatch,
    params: ExpansionParams,
    net: Network,
    routes: dict[str, list[Route]],
    live_streams: list[Stream],
    rng: Random,
) -> ExpansionReport:
    """Run one expansion round for the batch's new streams.

    Deletions must already be applied to the graph. Old streams never get
    new configurations. The total vertex count never exceeds the global
    budget cps * |live streams|.
    """
    report = ExpansionReport()
    vbar = global_budget(params.cps, len(live_streams))
    v0 = g.vertex_count
    new_streams = batch.add
    if not new_streams:
        return report

    delta = None
    if params.scheme == "deterministic":
        delta = max(1, delta_75(new_streams, net))
    placed: dict[str, set[tuple[int, int]]] = {s.id: set() for s in new_streams}
    # one phase-0 schedule per candidate route, shared by its configurations
    base = {
        s.id: [timing.link_occupancy(net, s, r, 0) for r in routes[s.id]]
        for s in new_streams
    }

    def place(stream: Stream, budget: int) -> None:
        budget = min(budget, vbar - g.vertex_count)
        if budget <= 0:
            return
        rts, scheds = routes[stream.id], base[stream.id]
        mps = [stream.period - sched.arrival for sched in scheds]
        if params.scheme == "deterministic":
            combos = deterministic_enumeration(mps, budget, delta, placed[stream.id])
        else:
            combos = randomized_enumeration(mps, budget, rng, placed[stream.id])
        for ri, phi in combos:
            g.add_configuration(Configuration(stream, ri, rts[ri], phi, scheds[ri]))
            placed[stream.id].add((ri, phi))
        report.surplus[stream.id] = report.surplus.get(stream.id, 0) + budget - len(combos)

    if params.strategy == "homogeneous":
        budgets = budget_homogeneous(batch, vbar, g)
        for s in new_streams:
            place(s, budgets[s.id])
    elif params.strategy == "traffic-volume":
        r_i = remaining_budget(vbar, g, batch, params.alpha)
        budgets = budget_traffic_volume(batch, r_i, params.alpha, live_streams)
        for s in new_streams:
            place(s, budgets[s.id])
    else:  # two-step strategies: base placement first, metric budgets second
        r_i = remaining_budget(vbar, g, batch, params.alpha)
        for s in new_streams:
            place(s, params.alpha)
        g.join_queued()  # the metric reads the edges: join here, as at the end
        if params.strategy == "avg-degree":
            extras = budget_avg_degree(batch, r_i, g)
        else:
            extras = budget_page_rank(batch, r_i, g)
        budgets = {s.id: params.alpha + extras[s.id] for s in new_streams}
        for s in new_streams:
            place(s, extras[s.id])

    # the join is graph creation: run it here, in expansion's own time, not
    # inside the first read of the edges
    g.join_queued()
    report.budgets = budgets
    report.vertices_added = g.vertex_count - v0
    return report
