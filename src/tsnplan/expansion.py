"""Conflict graph expansion: which configurations to add for new streams.

Two orthogonal choices: the enumeration scheme (deterministic phase ladder
vs uniformly random phases per route) and the budget distribution strategy.
The homogeneous strategy splits the budget evenly. The paper's three
heuristics share one formula over three metrics (traffic volume, average
degree, page-rank): the extras go to the new streams in proportion to each
one's distance below a ceiling. Budgets are computed with exact rationals,
floats for page-rank, and integerized by largest remainder so the
distributed totals are preserved deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

import numpy as np

from . import timing
from .conflict_graph import ConflictGraph
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
            phases = rng.sample(range(pool_sizes[ri]), alloc[ri])
            if used[ri]:  # otherwise a rank is its phase
                phases = [_unused_phase(rank, used[ri]) for rank in phases]
            out += [(ri, phi) for phi in phases]
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
    (assumes the raw sum is `total`). Ties go to earlier batch positions.

    The raws, ints, floats or `Fraction`s, are compared exactly, as integer
    numerators over their common denominator. For a float v >= 0, v -
    floor(v) is exact, so floats order as their own remainders do."""
    ratios = [raws[sid].as_integer_ratio() for sid in order]
    den = math.lcm(*(d for _, d in ratios))
    nums = [n * (den // d) for n, d in ratios]
    floors = [n // den for n in nums]
    remainders = [n - f * den for n, f in zip(nums, floors)]
    # a stable sort keeps equal remainders in batch order, reversed or not
    by_remainder = sorted(range(len(order)), key=remainders.__getitem__, reverse=True)
    for i in by_remainder[: total - sum(floors)]:
        floors[i] += 1
    return dict(zip(order, floors))


def _extras(metrics: dict, top, r_i: int, order: list[str]) -> dict:
    """Raw extras r_i * (top - m_i) / sum_j (top - m_j) of the streams of
    `order`, for a ceiling `top` at or above every metric, or an even split
    of r_i when the distances sum to zero. Ints and `Fraction`s test the sum
    exactly; floats within 1e-12, as a sum of equal floats can miss zero by
    rounding."""
    denom = top * len(order) - sum(metrics.values())
    if denom == 0 or isinstance(denom, float) and abs(denom) < 1e-12:
        return dict.fromkeys(order, Fraction(r_i, len(order) or 1))
    return {sid: (top - metrics[sid]) / denom * r_i for sid in order}


def budget_homogeneous(batch: StreamBatch, vbar: int, g: ConflictGraph) -> dict[str, int]:
    """Even split of the free vertex allowance over the new streams."""
    order = [s.id for s in batch.add]
    avail = max(0, vbar - g.vertex_count)
    return _largest_remainder(_extras(dict.fromkeys(order, 0), 0, avail, order), avail, order)


def raw_traffic_volume(batch: StreamBatch, r_i: int, all_streams: list[Stream]) -> dict:
    """Exact raw extras of the traffic-volume formula (Eq. 1). Its ceiling is
    an MTU per shortest period, or a new stream's volume where one is
    larger, so that no extra is negative."""
    vols = {s.id: traffic_volume(s) for s in batch.add}
    if not vols:
        return {}
    top = max([Fraction(MTU, min(s.period for s in all_streams)), *vols.values()])
    return _extras(vols, top, r_i, list(vols))


def budget_traffic_volume(
    batch: StreamBatch, r_i: int, alpha: int, all_streams: list[Stream]
) -> dict[str, int]:
    """Extras inversely proportional to traffic volume, plus the base budget."""
    order = [s.id for s in batch.add]
    extras = _largest_remainder(raw_traffic_volume(batch, r_i, all_streams), r_i, order)
    return {sid: extras[sid] + alpha for sid in order}


def _metric_budget(metrics: dict, r_i: int, order: list[str]) -> dict[str, int]:
    """The avg-degree and page-rank formulas (Eq. 2 and 3): the ceiling is
    the hardest stream's metric. No streams get no extras."""
    top = max(metrics.values(), default=0)
    return _largest_remainder(_extras(metrics, top, r_i, order), r_i, order)


def stream_sums(
    g: ConflictGraph, scores: np.ndarray, order: list[str]
) -> tuple[list[float], list[int]]:
    """Per stream of `order`, all at once: the sum of its vertices' scores,
    added left to right in vid order, and its vertex count."""
    slot = g.columns(order)[0] + 1  # slot 0 gathers the unlisted streams
    sums = np.bincount(slot, scores, len(order) + 1)[1:]
    counts = np.bincount(slot, minlength=len(order) + 1)[1:]
    return sums.tolist(), counts.tolist()


def budget_avg_degree(batch: StreamBatch, r_i: int, g: ConflictGraph) -> dict[str, int]:
    """Step-two budgets from per-stream exact average vertex degree after the
    base expansion, 0 for a stream without vertices; base budgets are already
    placed, so no alpha term."""
    order = [s.id for s in batch.add]
    sums, counts = stream_sums(g, np.diff(g.csr()[0]), order)
    degrees = {sid: Fraction(int(d), c or 1) for sid, d, c in zip(order, sums, counts)}
    return _metric_budget(degrees, r_i, order)


def budget_page_rank(batch: StreamBatch, r_i: int, g: ConflictGraph) -> dict[str, int]:
    """Like budget_avg_degree but with each stream's summed 4-iteration
    page-rank."""
    order = [s.id for s in batch.add]
    ranks = stream_sums(g, g.page_rank(), order)[0]
    return _metric_budget(dict(zip(order, ranks)), r_i, order)


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
    # one phase-0 schedule per candidate route, shared by its configurations
    base = {
        s.id: [timing.link_occupancy(net, s, r, 0) for r in routes[s.id]]
        for s in new_streams
    }

    def place(
        stream: Stream, budget: int, placed: set[tuple[int, int]] | None = None
    ) -> list[tuple[int, int]]:
        """Add up to `budget` of the stream's (route index, phase) pairs not
        in `placed`, and return them."""
        budget = min(budget, vbar - g.vertex_count)
        if budget <= 0:
            return []
        rts, scheds = routes[stream.id], base[stream.id]
        mps = [stream.period - sched.arrival for sched in scheds]
        if params.scheme == "deterministic":
            combos = deterministic_enumeration(mps, budget, delta, placed)
        else:
            combos = randomized_enumeration(mps, budget, rng, placed)
        add = g.add_configuration
        for ri, phi in combos:
            add((stream, ri, rts[ri], phi, scheds[ri]))
        report.surplus[stream.id] = report.surplus.get(stream.id, 0) + budget - len(combos)
        return combos

    r_i = remaining_budget(vbar, g, batch, params.alpha)
    placed: dict[str, set[tuple[int, int]]] = {}
    if params.strategy == "homogeneous":
        budgets = extras = budget_homogeneous(batch, vbar, g)
    elif params.strategy == "traffic-volume":
        budgets = extras = budget_traffic_volume(batch, r_i, params.alpha, live_streams)
    else:  # two-step strategies: base placement first, metric budgets second
        placed = {s.id: set(place(s, params.alpha)) for s in new_streams}
        g.join_queued()  # the metric reads the edges: join here, as at the end
        metric = budget_avg_degree if params.strategy == "avg-degree" else budget_page_rank
        extras = metric(batch, r_i, g)
        budgets = {s.id: params.alpha + extras[s.id] for s in new_streams}
    for s in new_streams:
        place(s, extras[s.id], placed.get(s.id))

    # the join is graph creation: run it here, in expansion's own time, not
    # inside the first read of the edges
    g.join_queued()
    report.budgets = budgets
    report.vertices_added = g.vertex_count - v0
    return report
