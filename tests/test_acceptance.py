"""End-to-end acceptance gates.

Each test covers one numbered acceptance criterion and prints a single
summary line (visible with pytest -rA / -s); the assert is the gate. The
heavyweight experiment sweeps are computed once in module-scoped fixtures
and shared by the criteria that read them.
"""

import csv
import itertools
import statistics
import time
from fractions import Fraction
from random import Random

import pytest

from tsnplan.expansion import (
    ExpansionParams,
    _metric_budget,
    expand,
    raw_traffic_volume,
)
from tsnplan.harness import (
    ExperimentConfig,
    build_scenario,
    build_topology,
    gen_streams,
    run_experiment,
    write_metrics_csv,
)
from tsnplan.model import Stream, StreamBatch
from tsnplan.routing import candidate_routes
from tsnplan.solver import Planner, validate_plan
from tsnplan.timing import (
    OccupancySchedule,
    brute_force_conflict,
    frames_conflict,
)

from conftest import max_phase
from test_solver import FakeGraph, check_solution, exhaustive_best

SIZES = [125, 250, 500, 750, 1000, 1500]
HARMONIC = [250, 500, 1000, 2000]
NON_HARMONIC = [300, 400, 500, 1200, 1500, 2000]


def ok(n, detail):
    print(f"criterion {n}: PASS - {detail}")


# -- criterion 1: conflict predicate vs brute force ----------------------


def test_criterion_01_conflict_predicate_oracle_equivalence():
    t0 = time.perf_counter()
    rng = Random(20260824)
    links = [("u0", "u1"), ("u1", "u2"), ("u2", "u3"), ("u3", "u4")]
    mismatches = 0
    for _ in range(1000):
        def sched(period):
            entries = []
            for key in rng.sample(links, rng.randrange(1, 5)):
                s = rng.randrange(period)
                e = rng.randrange(s + 1, period + 1)
                entries.append((key, s, e))
            return OccupancySchedule(tuple(entries), max(e for _, _, e in entries))

        pa, pb = rng.randrange(1, 65), rng.randrange(1, 65)
        a, b = sched(pa), sched(pb)
        if frames_conflict(a, pa, b, pb) != brute_force_conflict(a, pa, b, pb):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 10
    ok(1, f"1000/1000 instances exact match in {elapsed:.2f}s")


# -- criteria 2 and 9: full test matrix ----------------------------------


def run_recorded(cfg):
    net = build_topology(cfg)
    batches = build_scenario(cfg, net)
    planner = Planner(net, cfg.expansion_params(), k_routes=cfg.k_routes)
    records = []
    for batch in batches:
        batch.delete = [d for d in batch.delete if d in planner.state.admitted]
        planner.iterate(batch)
        records.append({
            "deleted": set(batch.delete),
            "plan_ids": set(planner.state.plan.assignments),
            "problems": validate_plan(net, planner.state.plan),
        })
    return records


@pytest.fixture(scope="module")
def matrix_runs():
    strategies = ["homogeneous", "traffic-volume", "avg-degree", "page-rank"]
    schemes = ["deterministic", "randomized"]
    topologies = [
        {"kind": "ring", "n": 8},
        {"kind": "grid", "rows": 3, "cols": 3},
        {"kind": "random", "n": 8, "p": 0.4},
    ]
    runs = {}
    for strategy, scheme, topo in itertools.product(strategies, schemes, topologies):
        cfg = ExperimentConfig(
            topology=topo,
            initial_streams=30,
            iterations=3,
            add_per_iteration=6,
            del_per_iteration=4,
            cps=20,
            scheme=scheme,
            strategy=strategy,
            seed=11,
        )
        runs[(strategy, scheme, topo["kind"])] = run_recorded(cfg)
    return runs


def test_criterion_02_every_plan_in_matrix_validates(matrix_runs):
    bad = [
        (key, rec["problems"])
        for key, records in matrix_runs.items()
        for rec in records
        if rec["problems"]
    ]
    assert bad == []
    n_plans = sum(len(r) for r in matrix_runs.values())
    ok(2, f"{n_plans} plans across {len(matrix_runs)} matrix runs all valid")


def test_criterion_09_monotone_service(matrix_runs):
    violations = []
    for key, records in matrix_runs.items():
        for prev, cur in zip(records, records[1:]):
            kept = prev["plan_ids"] - cur["deleted"]
            missing = kept - cur["plan_ids"]
            if missing:
                violations.append((key, missing))
    assert violations == []
    ok(9, "no admitted-and-undeleted stream ever dropped from a later plan")


# -- criteria 3 and 4: enumeration scheme sweeps -------------------------


def scheme_sweep(periods):
    """16-bridge Waxman, 100 streams offline, homogeneous strategy, both
    schemes, cps 1..20, 5 seeds. Returns per (scheme, cps) edge/rejection
    medians over seeds."""
    edges = {}
    rejections = {}
    for seed in range(5):
        cfg0 = ExperimentConfig(topology={"kind": "waxman", "n": 16}, seed=seed)
        net = build_topology(cfg0)
        streams = gen_streams(net, 100, SIZES, periods, seed=seed)
        for cps in range(1, 21):
            for scheme in ("deterministic", "randomized"):
                cfg = ExperimentConfig(
                    topology={"kind": "waxman", "n": 16},
                    cps=cps,
                    scheme=scheme,
                    seed=seed,
                )
                metrics, _ = run_experiment(
                    cfg, net=net, batches=[StreamBatch(0, add=list(streams))]
                )
                edges.setdefault((scheme, cps), []).append(metrics[0].edges)
                rejections.setdefault((scheme, cps), []).append(metrics[0].rejected)
    med = lambda d: {k: statistics.median(v) for k, v in d.items()}
    return med(edges), med(rejections)


def first_zero_rejection_cps(rejections, scheme):
    for cps in range(1, 21):
        if rejections[(scheme, cps)] == 0:
            return cps
    return float("inf")


def test_criterion_03_randomized_vs_deterministic_non_harmonic():
    t0 = time.perf_counter()
    edges, rejections = scheme_sweep(NON_HARMONIC)
    elapsed = time.perf_counter() - t0
    ratios = [
        edges[("randomized", cps)] / edges[("deterministic", cps)]
        for cps in range(1, 21)
    ]
    rand_cps = first_zero_rejection_cps(rejections, "randomized")
    det_cps = first_zero_rejection_cps(rejections, "deterministic")
    assert max(ratios) <= 0.6
    assert rand_cps <= det_cps
    assert elapsed < 120
    ok(3, f"edge ratio max {max(ratios):.3f} <= 0.6; zero-rejection cps "
          f"{rand_cps} (randomized) vs {det_cps} (deterministic); {elapsed:.0f}s")


def test_criterion_04_harmonic_period_shrinkage():
    edges, _ = scheme_sweep(HARMONIC)
    ratios = [
        edges[("randomized", cps)] / edges[("deterministic", cps)]
        for cps in range(1, 21)
    ]
    assert max(ratios) <= 0.45
    ok(4, f"harmonic edge ratio max {max(ratios):.3f} <= 0.45")


# -- criteria 5 and 6: saturated dynamic grid ----------------------------


@pytest.fixture(scope="module")
def grid_strategy_runs():
    runs = {}
    for strategy in ("homogeneous", "avg-degree", "traffic-volume"):
        per_seed = []
        for seed in range(10):
            cfg = ExperimentConfig(
                topology={"kind": "grid", "rows": 5, "cols": 5},
                periods=list(HARMONIC),
                initial_streams=180,
                iterations=10,
                add_per_iteration=15,
                del_per_iteration=8,
                cps=50,
                strategy=strategy,
                scheme="randomized",
                seed=seed,
            )
            metrics, _ = run_experiment(cfg)
            per_seed.append(metrics)
        runs[strategy] = per_seed
    return runs


def test_criterion_05_heterogeneous_budgets_beat_homogeneous(grid_strategy_runs):
    med_rej = {}
    med_edges = {}
    for strategy, per_seed in grid_strategy_runs.items():
        med_rej[strategy] = statistics.median(
            sum(m.rejected for m in metrics) for metrics in per_seed
        )
        med_edges[strategy] = statistics.median(
            statistics.median(m.edges for m in metrics) for metrics in per_seed
        )
    for strategy in ("avg-degree", "traffic-volume"):
        assert med_rej[strategy] <= med_rej["homogeneous"]
        assert med_edges[strategy] < med_edges["homogeneous"]
    ok(5, f"median rejections {med_rej}; median edges {med_edges}")


def test_criterion_06_dynamic_update_latency(grid_strategy_runs):
    worst = max(
        m.total_ms
        for per_seed in grid_strategy_runs.values()
        for metrics in per_seed
        for m in metrics[1:]
    )
    assert worst < 2000
    ok(6, f"worst non-initial iteration {worst:.0f} ms < 2000 ms")


# -- criterion 7: offline scale smoke ------------------------------------


def test_criterion_07_scale_smoke():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        topology={"kind": "waxman", "n": 64},
        initial_streams=2000,
        cps=50,
        strategy="traffic-volume",
        seed=0,
    )
    metrics, _ = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    rejected = metrics[0].rejected
    assert rejected <= 0.01 * 2000
    assert elapsed < 300
    ok(7, f"2000 streams on 64 bridges: {rejected} rejected, "
          f"{metrics[0].vertices} vertices / {metrics[0].edges} edges, "
          f"{elapsed:.0f}s < 300s")


# -- criterion 8: budget formula properties ------------------------------


def test_criterion_08_budget_formula_properties():
    from tsnplan.harness import gen_ring

    rng = Random(8)
    net = gen_ring(4)
    route_cache = {}
    for trial in range(500):
        n = rng.randrange(1, 6)
        streams = []
        for i in range(n):
            src = rng.randrange(4)
            dst = (src + rng.randrange(1, 4)) % 4
            streams.append(Stream(
                f"t{trial}s{i}", f"d{src}", f"d{dst}",
                rng.choice(HARMONIC), rng.choice(SIZES),
            ))
        batch = StreamBatch(0, add=streams)
        r_i = rng.randrange(0, 60)

        # Eq. 1 raw extras: exact rationals
        raws = raw_traffic_volume(batch, r_i, streams)
        if raws is not None:
            assert all(v >= 0 for v in raws.values())
            assert sum(raws.values()) == r_i

        # Eq. 2 / Eq. 3 shape: extras proportional to distance below the
        # hardest stream's metric, nonnegative, integerized sum preserved
        for exact in (True, False):
            metrics = {
                s.id: (Fraction(rng.randrange(0, 30), rng.randrange(1, 5))
                       if exact else rng.random())
                for s in streams
            }
            order = [s.id for s in streams]
            top = max(metrics.values())
            denom = top * n - sum(metrics.values())
            if denom:
                raw = {sid: (top - metrics[sid]) / denom * r_i for sid in order}
                assert all(v >= 0 for v in raw.values())
                assert abs(float(sum(raw.values())) - r_i) < 1e-9
            extras = _metric_budget(metrics, r_i, order)
            assert all(v >= 0 for v in extras.values())
            assert sum(extras.values()) == r_i

        # expansion leaves every stream with at least min(alpha, feasible)
        cps = rng.randrange(1, 13)
        alpha = min(5, cps)
        params = ExpansionParams(
            cps=cps, alpha=alpha,
            strategy=rng.choice(["homogeneous", "traffic-volume",
                                 "avg-degree", "page-rank"]),
            scheme=rng.choice(["deterministic", "randomized"]),
            rng_seed=trial,
        )
        from tsnplan.conflict_graph import ConflictGraph

        g = ConflictGraph()
        routes = {}
        pool = {}
        for s in streams:
            key = (s.src, s.dst)
            if key not in route_cache:
                route_cache[key] = candidate_routes(net, s.src, s.dst, 2)
            routes[s.id] = route_cache[key]
            pool[s.id] = sum(
                max_phase(net, s, r) + 1
                for r in routes[s.id]
                if max_phase(net, s, r) >= 0
            )
        expand(g, batch, params, net, routes, streams, Random(trial))
        for s in streams:
            assert len(g.vids_of(s.id)) >= min(alpha, pool[s.id])
    ok(8, "500 batches: raw shares nonnegative and conserved, integer sums "
          "exact, base budgets honored")


# -- criterion 10: small-instance solver oracle --------------------------


def test_criterion_10_small_instance_solver_oracle():
    from tsnplan.solver import gfh_solve

    t0 = time.perf_counter()
    rng = Random(10)
    optimal = 0
    trials = 200
    for _ in range(trials):
        n = rng.randrange(2, 13)
        colors = [f"c{i}" for i in range(rng.randrange(1, 6))]
        color_of = {v: rng.choice(colors) for v in range(n)}
        colors = sorted(set(color_of.values()))
        p = rng.choice([0.15, 0.3, 0.5])
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if color_of[u] != color_of[v] and rng.random() < p
        ]
        fake = FakeGraph(n, edges, color_of)
        selection, rejected = gfh_solve(fake, [], colors)
        check_solution(fake, colors, selection, rejected)
        best = exhaustive_best(fake, colors, required=set())
        assert len(selection) <= best
        if len(selection) == best:
            optimal += 1
    elapsed = time.perf_counter() - t0
    assert optimal >= 0.7 * trials
    assert elapsed < 30
    ok(10, f"{optimal}/{trials} optimal ({optimal / trials:.0%}), always "
           f"independent and colorful, {elapsed:.1f}s")


# -- criterion 11: determinism -------------------------------------------


def strip_time_columns(path):
    with open(path, newline="") as f:
        return [
            [c for i, c in enumerate(row) if i not in (5, 6, 7, 10)]
            for row in csv.reader(f)
        ]


def test_criterion_11_repeat_runs_are_identical(tmp_path):
    cfg_kw = dict(
        topology={"kind": "waxman", "n": 16},
        initial_streams=60,
        iterations=3,
        add_per_iteration=10,
        del_per_iteration=8,
        cps=20,
        strategy="page-rank",
        scheme="randomized",
        seed=17,
    )
    rows = []
    for run in range(2):
        metrics, _ = run_experiment(ExperimentConfig(**cfg_kw))
        path = tmp_path / f"metrics{run}.csv"
        write_metrics_csv(path, metrics)
        rows.append(strip_time_columns(path))
    assert rows[0] == rows[1]
    ok(11, "repeated run reproduces metrics.csv byte-identically outside "
           "the time columns")
