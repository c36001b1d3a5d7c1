"""Experiment framework: topology generators, scenario generation, and the
iteration driver with metrics collection.

All generators attach one end device per bridge and emit every physical
cable as a pair of directed links. Generated networks are 1 Gbit/s with
1 tick propagation delay per link and 4 ticks of bridge processing delay;
other link values load through `kind: file` topologies.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import astuple, dataclass, field, fields
from random import Random

from .expansion import ExpansionParams
from .model import (
    BRIDGE,
    END_DEVICE,
    MAX_PERIOD,
    Link,
    Network,
    Node,
    Stream,
    StreamBatch,
    validate_network,
)
from .solver import IterationMetrics, Planner, TrafficPlan, validate_plan

DEFAULT_RATE = 1000  # bits per tick = 1 Gbit/s
DEFAULT_PROPAGATION = 1
DEFAULT_PROCESSING = 4

METRICS_HEADER = [f.name for f in fields(IterationMetrics)]


class ConfigError(Exception):
    pass


class PlanValidationError(Exception):
    def __init__(self, iteration: int, problems: list[str]):
        super().__init__(f"invalid plan at iteration {iteration}: {problems[:3]}")
        self.iteration = iteration
        self.problems = problems


def _assemble(bridge_edges: list[tuple[int, int]], n: int) -> Network:
    nodes = []
    links = []
    for i in range(n):
        nodes.append(Node(f"b{i}", BRIDGE, DEFAULT_PROCESSING))
        nodes.append(Node(f"d{i}", END_DEVICE))
        for a, b in ((f"b{i}", f"d{i}"), (f"d{i}", f"b{i}")):
            links.append(Link(a, b, DEFAULT_RATE, DEFAULT_PROPAGATION))
    for u, v in bridge_edges:
        for a, b in ((f"b{u}", f"b{v}"), (f"b{v}", f"b{u}")):
            links.append(Link(a, b, DEFAULT_RATE, DEFAULT_PROPAGATION))
    return Network(nodes, links)


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = set(), [0]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(adj[u] - seen)
    return len(seen) == n


MAX_RESAMPLES = 1000


def gen_random(n: int, p: float, seed: int) -> Network:
    """Erdos-Renyi bridge graph, resampled until connected."""
    if n < 2 or not 0 < p <= 1:
        raise ValueError("need n >= 2 and 0 < p <= 1")
    for attempt in range(MAX_RESAMPLES):
        rng = Random(seed * 1_000_003 + attempt)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        if _connected(n, edges):
            return _assemble(edges, n)
    raise ValueError(f"could not draw a connected graph (n={n}, p={p})")


def gen_waxman(n: int, a: float = 0.4, b: float = 0.6, seed: int = 0) -> Network:
    """Waxman graph: points in the unit square, edge probability decaying
    with distance, resampled until connected."""
    if n < 2 or not 0 < a <= 1 or not 0 < b <= 1:
        raise ValueError("need n >= 2 and a, b in (0, 1]")
    for attempt in range(MAX_RESAMPLES):
        rng = Random(seed * 1_000_003 + attempt)
        pts = [(rng.random(), rng.random()) for _ in range(n)]
        dmax = max(
            math.dist(pts[u], pts[v]) for u in range(n) for v in range(u + 1, n)
        )
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                prob = b * math.exp(-math.dist(pts[u], pts[v]) / (a * dmax))
                if rng.random() < prob:
                    edges.append((u, v))
        if _connected(n, edges):
            return _assemble(edges, n)
    raise ValueError(f"could not draw a connected graph (n={n}, a={a}, b={b})")


def gen_ring(n: int) -> Network:
    if n < 3:
        raise ValueError("ring needs n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return _assemble(edges, n)


def gen_grid(rows: int, cols: int) -> Network:
    if rows < 2 or cols < 2:
        raise ValueError("grid needs rows, cols >= 2")
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return _assemble(edges, rows * cols)


def gen_streams(
    net: Network,
    count: int,
    size_set: list[int],
    period_set: list[int],
    seed: int,
    start_index: int = 0,
) -> list[Stream]:
    """Uniform random device pairs with sizes and periods from fixed sets."""
    devices = net.end_devices()
    if len(devices) < 2:
        raise ValueError("need at least 2 end devices")
    if not size_set or not period_set:
        raise ValueError("size and period sets must be nonempty")
    rng = Random(seed)
    out = []
    for i in range(count):
        src, dst = rng.sample(devices, 2)
        out.append(
            Stream(
                id=f"s{start_index + i}",
                src=src,
                dst=dst,
                period=rng.choice(period_set),
                size=rng.choice(size_set),
            )
        )
    return out


@dataclass
class ExperimentConfig:
    topology: dict  # {"kind": random|waxman|ring|grid|file, ...params}
    sizes: list[int] = field(default_factory=lambda: [125, 250, 500, 750, 1000, 1500])
    periods: list[int] = field(default_factory=lambda: [250, 500, 1000, 2000])
    initial_streams: int = 100
    iterations: int = 0
    add_per_iteration: int = 20
    del_per_iteration: int = 20
    cps: int = 50
    alpha: int = 5
    scheme: str = "randomized"
    strategy: str = "homogeneous"
    k_routes: int = 2
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        bad = [p for p in self.periods if type(p) is not int or not 0 < p < MAX_PERIOD]
        if bad:
            raise ConfigError(f"periods must be ints > 0 and < 2**31, got {bad}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            return cls(**d)
        except TypeError as e:
            raise ConfigError(str(e)) from None

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as f:
                return cls.from_dict(json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None

    def expansion_params(self) -> ExpansionParams:
        try:
            return ExpansionParams(
                cps=self.cps,
                alpha=min(self.alpha, self.cps),  # low-cps sweeps shrink the base budget
                scheme=self.scheme,
                strategy=self.strategy,
                rng_seed=self.seed,
            )
        except ValueError as e:
            raise ConfigError(str(e)) from None


def build_topology(cfg: ExperimentConfig) -> Network:
    t = dict(cfg.topology)
    kind = t.pop("kind", None)
    try:
        if kind == "random":
            net = gen_random(t["n"], t.get("p", 0.3), cfg.seed)
        elif kind == "waxman":
            net = gen_waxman(t["n"], t.get("a", 0.4), t.get("b", 0.6), cfg.seed)
        elif kind == "ring":
            net = gen_ring(t["n"])
        elif kind == "grid":
            net = gen_grid(t["rows"], t["cols"])
        elif kind == "file":
            net = Network.load(t["path"])
        else:
            raise ConfigError(f"unknown topology kind {kind!r}")
    except (KeyError, ValueError, OSError) as e:
        raise ConfigError(f"bad topology spec: {e}") from None
    problems = validate_network(net)
    if problems:
        raise ConfigError(f"generated/loaded topology invalid: {problems}")
    return net


def build_scenario(cfg: ExperimentConfig, net: Network) -> list[StreamBatch]:
    """Initial batch plus the configured dynamic update batches.

    Deletions are drawn from the streams that are still expected to be
    present assuming nothing got rejected; the planner drops delete entries
    for streams that were in fact rejected (see run_experiment).
    """
    batches = [
        StreamBatch(
            0, add=gen_streams(net, cfg.initial_streams, cfg.sizes, cfg.periods, cfg.seed)
        )
    ]
    rng = Random(cfg.seed * 7_777_777 + 13)
    present = [s.id for s in batches[0].add]
    next_id = cfg.initial_streams
    for i in range(1, cfg.iterations + 1):
        dels = rng.sample(present, min(cfg.del_per_iteration, len(present)))
        adds = gen_streams(
            net,
            cfg.add_per_iteration,
            cfg.sizes,
            cfg.periods,
            seed=cfg.seed * 1_000_003 + i,
            start_index=next_id,
        )
        next_id += cfg.add_per_iteration
        present = [p for p in present if p not in set(dels)] + [s.id for s in adds]
        batches.append(StreamBatch(i, add=adds, delete=dels))
    return batches


def run_experiment(
    cfg: ExperimentConfig,
    net: Network | None = None,
    batches: list[StreamBatch] | None = None,
) -> tuple[list[IterationMetrics], Planner]:
    """Run all iterations, validating every emitted plan.

    Raises PlanValidationError on the first invalid plan.
    """
    if net is None:
        net = build_topology(cfg)
    if batches is None:
        batches = build_scenario(cfg, net)
    planner = Planner(net, cfg.expansion_params(), k_routes=cfg.k_routes)
    metrics: list[IterationMetrics] = []
    for batch in batches:
        # scenario batches assume nothing was rejected; drop deletions of
        # streams that never made it in, from a copy of the caller's batch
        delete = [d for d in batch.delete if d in planner.state.admitted]
        m = planner.iterate(StreamBatch(batch.iteration, batch.add, delete))
        problems = validate_plan(net, planner.state.plan)
        if problems:
            raise PlanValidationError(batch.iteration, problems)
        metrics.append(m)
    if cfg.out_dir:
        write_outputs(cfg.out_dir, net, metrics, planner.state.plan)
    return metrics, planner


def write_metrics_csv(path, metrics: list[IterationMetrics]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(METRICS_HEADER)
        for m in metrics:
            row = astuple(m)
            w.writerow([f"{v:.3f}" if isinstance(v, float) else v for v in row])


def plan_to_dict(plan: TrafficPlan) -> dict:
    return {
        "iteration": plan.iteration,
        "streams": {
            sid: {
                "nodes": list(cfg.route.nodes),
                "route_index": cfg.route_index,
                "phase": cfg.phase,
                "period": cfg.stream.period,
                "size": cfg.stream.size,
            }
            for sid, cfg in sorted(plan.assignments.items())
        },
    }


def write_outputs(
    out_dir, net: Network, metrics: list[IterationMetrics], plan: TrafficPlan
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), metrics)
    net.save(os.path.join(out_dir, "topology.json"))
    with open(os.path.join(out_dir, "plan.json"), "w") as f:
        json.dump(plan_to_dict(plan), f, indent=1)


def load_plan(path, net: Network) -> TrafficPlan:
    """Rebuild a TrafficPlan from plan.json against a topology. Phases are
    not checked against the deadline, so that validate_plan can report a
    late stream. Raises ConfigError for an unreadable or malformed plan."""
    from .conflict_graph import Configuration
    from .routing import Route
    from .timing import link_occupancy

    try:
        with open(path) as f:
            d = json.load(f)
        assignments = {}
        for sid, spec in d["streams"].items():
            ints = [spec[k] for k in ("period", "size", "phase")]
            if any(type(v) is not int for v in ints) or spec["phase"] < 0:
                raise ValueError(f"{sid}: period, size, phase must be ints, phase >= 0")
            nodes = spec["nodes"]
            route = Route(tuple(net.link(a, b) for a, b in zip(nodes, nodes[1:])))
            stream = Stream(sid, nodes[0], nodes[-1], spec["period"], spec["size"])
            assignments[sid] = Configuration(
                stream, spec.get("route_index", 0), route, spec["phase"],
                link_occupancy(net, stream, route, 0),
            )
        return TrafficPlan(d.get("iteration", 0), assignments)
    except KeyError as e:
        raise ConfigError(f"cannot read plan {path}: no field or link {e}") from None
    except (OSError, ValueError, TypeError, IndexError, AttributeError) as e:
        raise ConfigError(f"cannot read plan {path}: {e}") from None
