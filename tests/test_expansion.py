import math
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsnplan import conflict_graph, timing
from tsnplan.conflict_graph import ConflictGraph
from tsnplan.expansion import (
    ExpansionParams,
    budget_avg_degree,
    budget_homogeneous,
    budget_page_rank,
    budget_traffic_volume,
    delta_75,
    deterministic_enumeration,
    expand,
    global_budget,
    randomized_enumeration,
    raw_traffic_volume,
    remaining_budget,
    _metric_budget,
)
from tsnplan.harness import gen_ring
from tsnplan.model import Stream, StreamBatch
from tsnplan.routing import candidate_routes

from conftest import live_vids, max_phase, mkstream, shared_link_net
from enumeration_oracle import oracle_randomized_enumeration


def stub_graph(vertex_count=0):
    return SimpleNamespace(vertex_count=vertex_count)


def batch_of(*streams):
    return StreamBatch(0, add=list(streams))


def test_params_validation():
    ExpansionParams(cps=5, alpha=5)
    with pytest.raises(ValueError):
        ExpansionParams(cps=0)
    with pytest.raises(ValueError):
        ExpansionParams(cps=5, alpha=6)
    with pytest.raises(ValueError):
        ExpansionParams(cps=5, alpha=0)
    with pytest.raises(ValueError):
        ExpansionParams(cps=5, scheme="magic")
    with pytest.raises(ValueError):
        ExpansionParams(cps=5, strategy="magic")


def test_global_budget():
    assert global_budget(10, 2) == 20
    assert global_budget(50, 0) == 0
    assert global_budget(50, 40) == 2000


def test_remaining_budget():
    b1 = batch_of(mkstream("n0"))
    assert remaining_budget(20, stub_graph(6), b1, alpha=5) == 9
    b2 = batch_of(mkstream("n0"), mkstream("n1"))
    assert remaining_budget(20, stub_graph(0), b2, alpha=5) == 10
    assert remaining_budget(10, stub_graph(9), b1, alpha=5) == 0  # clamped


def test_delta_75():
    net = shared_link_net()  # every source link runs at 1000 bits/tick
    sizes_to_ticks = {125: 1, 500: 4, 1500: 12}
    streams = [
        mkstream(f"s{i}", size=size, src=f"a{i % 4}", dst=f"z{i % 4}")
        for i, size in enumerate([125, 500, 500, 1500])
    ]
    assert delta_75(streams, net) == 4  # times {1,4,4,12}, rank ceil(.75*4)=3
    assert delta_75([streams[1]] * 3, net) == 4  # all equal
    assert delta_75([streams[3]], net) == 12  # single stream
    with pytest.raises(ValueError):
        delta_75([], net)
    assert sizes_to_ticks  # documents the mapping used above


@pytest.fixture
def two_route_setup():
    """Ring of 4: d0 -> d2 has two 4-link routes with equal max phase."""
    net = gen_ring(4)
    stream = mkstream("s", period=500, size=500, src="d0", dst="d2")
    routes = candidate_routes(net, "d0", "d2", 2)
    return net, stream, routes


@pytest.fixture
def lopsided_setup():
    """Ring of 4: d0 -> d1 has a 3-link route and a 5-link detour whose
    max phases differ sharply at tight periods."""
    net = gen_ring(4)
    routes = candidate_routes(net, "d0", "d1", 2)
    return net, routes


def max_phases(net, stream, routes):
    return [max_phase(net, stream, r) for r in routes]


def test_deterministic_ladder_order(two_route_setup):
    net, stream, routes = two_route_setup
    out = deterministic_enumeration(max_phases(net, stream, routes), budget=6, delta=4)
    assert out == [(0, 0), (1, 0), (0, 4), (1, 4), (0, 8), (1, 8)]


def test_deterministic_budget_one(two_route_setup):
    net, stream, routes = two_route_setup
    assert deterministic_enumeration(max_phases(net, stream, routes), 1, 4) == [(0, 0)]


def test_deterministic_skips_exhausted_route(lopsided_setup):
    net, routes = lopsided_setup
    stream = mkstream("s", period=44, size=500, src="d0", dst="d1")
    assert max_phase(net, stream, routes[0]) == 21
    assert max_phase(net, stream, routes[1]) == 3
    out = deterministic_enumeration(max_phases(net, stream, routes), budget=6, delta=4)
    assert out == [(0, 0), (1, 0), (0, 4), (0, 8), (0, 12), (0, 16)]


def test_deterministic_stops_when_ladders_exhausted(lopsided_setup):
    net, routes = lopsided_setup
    stream = mkstream("s", period=44, size=500, src="d0", dst="d1")
    mps = max_phases(net, stream, routes)
    out = deterministic_enumeration(mps, budget=100, delta=4)
    assert len(out) == 7  # phases 0..20 step 4 on route 0, phase 0 on route 1
    assert len(set(out)) == 7


def test_deterministic_respects_exclusions(two_route_setup):
    net, stream, routes = two_route_setup
    out = deterministic_enumeration(
        max_phases(net, stream, routes), budget=3, delta=4, exclude={(0, 0), (1, 4)}
    )
    assert out == [(1, 0), (0, 4), (0, 8)]


def test_randomized_even_split(two_route_setup):
    net, stream, routes = two_route_setup
    out = randomized_enumeration(max_phases(net, stream, routes), 6, Random(1))
    per_route = {0: [], 1: []}
    for ri, phi in out:
        per_route[ri].append(phi)
    mps = max_phases(net, stream, routes)
    for ri, phis in per_route.items():
        assert len(phis) == 3 and len(set(phis)) == 3
        assert all(0 <= p <= mps[ri] for p in phis)


def test_randomized_remainder_goes_to_first_route(two_route_setup):
    net, stream, routes = two_route_setup
    out = randomized_enumeration(max_phases(net, stream, routes), 7, Random(1))
    counts = [sum(1 for ri, _ in out if ri == i) for i in range(2)]
    assert counts == [4, 3]


def test_randomized_shortfall_reassigned(lopsided_setup):
    net, routes = lopsided_setup
    stream = mkstream("s", period=41, size=500, src="d0", dst="d1")
    assert max_phase(net, stream, routes[1]) == 0  # pool of size 1
    out = randomized_enumeration(max_phases(net, stream, routes), 6, Random(3))
    counts = [sum(1 for ri, _ in out if ri == i) for i in range(2)]
    assert counts == [5, 1] and len(set(out)) == 6


def test_randomized_respects_exclusions(two_route_setup):
    net, stream, routes = two_route_setup
    exclude = {(0, p) for p in range(0, 460)} | {(1, p) for p in range(0, 460)}
    mps = max_phases(net, stream, routes)
    out = randomized_enumeration(mps, 50, Random(5), exclude)
    assert not (set(out) & exclude)
    assert len(set(out)) == len(out)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-3, 2500), min_size=1, max_size=3),
    st.integers(0, 80),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2600)), max_size=40),
    st.integers(0, 2**32 - 1),
)
def test_randomized_matches_list_pool_oracle(max_phases, budget, exclude, seed):
    """Same phases in the same order as sampling from explicit pool lists,
    and the generator is left in the same state."""
    rng, oracle_rng = Random(seed), Random(seed)
    out = randomized_enumeration(max_phases, budget, rng, set(exclude))
    expected = oracle_randomized_enumeration(max_phases, budget, oracle_rng, set(exclude))
    assert out == expected
    assert rng.random() == oracle_rng.random()


def test_budget_homogeneous():
    b = batch_of(mkstream("n0"), mkstream("n1"))
    assert budget_homogeneous(b, 20, stub_graph(0)) == {"n0": 10, "n1": 10}
    assert budget_homogeneous(b, 21, stub_graph(0)) == {"n0": 11, "n1": 10}
    assert budget_homogeneous(b, 20, stub_graph(20)) == {"n0": 0, "n1": 0}
    assert budget_homogeneous(batch_of(), 20, stub_graph(0)) == {}


def vol_stream(sid, size, period=250):
    return mkstream(sid, period=period, size=size)


def test_traffic_volume_example():
    # volumes 1 and 3 B/tick against a 1500 B / 250 tick ceiling of 6
    s1, s2 = vol_stream("s1", 250), vol_stream("s2", 750)
    batch = batch_of(s1, s2)
    raws = raw_traffic_volume(batch, 10, [s1, s2])
    assert raws == {"s1": Fraction(25, 4), "s2": Fraction(15, 4)}  # 6.25 / 3.75
    budgets = budget_traffic_volume(batch, 10, 5, [s1, s2])
    assert budgets == {"s1": 11, "s2": 9}


def test_traffic_volume_single_stream_gets_everything():
    s = vol_stream("s1", 250)
    assert budget_traffic_volume(batch_of(s), 10, 5, [s]) == {"s1": 15}


def test_traffic_volume_equal_volumes_split_evenly():
    s1, s2 = vol_stream("s1", 500), vol_stream("s2", 500)
    assert budget_traffic_volume(batch_of(s1, s2), 10, 5, [s1, s2]) == {
        "s1": 10,
        "s2": 10,
    }


def test_traffic_volume_degenerate_denominator():
    # every new stream at the maximal volume -> uniform split of the extras
    s1, s2 = vol_stream("s1", 1500), vol_stream("s2", 1500)
    assert raw_traffic_volume(batch_of(s1, s2), 10, [s1, s2]) is None
    assert budget_traffic_volume(batch_of(s1, s2), 9, 5, [s1, s2]) == {
        "s1": 10,
        "s2": 9,
    }


def test_metric_budget_example():
    # degrees 2 and 6: all 10 extras go to the low-degree stream
    assert _metric_budget({"s1": 2, "s2": 6}, 10, ["s1", "s2"]) == {
        "s1": 10,
        "s2": 0,
    }


def test_metric_budget_degenerate_uniform():
    assert _metric_budget({"s1": 0, "s2": 0, "s3": 0}, 10, ["s1", "s2", "s3"]) == {
        "s1": 4,
        "s2": 3,
        "s3": 3,
    }


def test_metric_budget_max_gets_zero():
    out = _metric_budget({"a": 1, "b": 5, "c": 3}, 9, ["a", "b", "c"])
    assert out["b"] == 0 and sum(out.values()) == 9


def test_metric_budget_page_rank_example():
    # stream ranks 0.75 / 0.25 with R = 8: raw shares 0 and 8
    assert _metric_budget({"s1": 0.75, "s2": 0.25}, 8, ["s1", "s2"]) == {
        "s1": 0,
        "s2": 8,
    }


def test_budget_avg_degree_and_page_rank_on_empty_graph():
    g = ConflictGraph()
    b = batch_of(mkstream("n0"), mkstream("n1"))
    assert budget_avg_degree(b, 10, g) == {"n0": 5, "n1": 5}
    assert budget_page_rank(b, 10, g) == {"n0": 5, "n1": 5}


def expand_on_ring(streams, params, cps_graph=None, live_extra=()):
    net = gen_ring(4)
    batch = StreamBatch(0, add=streams)
    routes = {s.id: candidate_routes(net, s.src, s.dst, 2) for s in streams}
    g = cps_graph or ConflictGraph()
    live = list(live_extra) + streams
    report = expand(g, batch, params, net, routes, live, Random(params.rng_seed))
    return g, report


def ring_stream(sid, period=500, size=500, src="d0", dst="d2"):
    return Stream(sid, src, dst, period, size)


def test_expand_homogeneous_randomized_counts():
    streams = [ring_stream("s0"), ring_stream("s1", src="d1", dst="d3")]
    g, report = expand_on_ring(streams, ExpansionParams(cps=10))
    assert g.vertex_count == 20
    assert len(g.vids_of("s0")) == 10 and len(g.vids_of("s1")) == 10
    assert report.budgets == {"s0": 10, "s1": 10}


def test_expand_traffic_volume_counts():
    streams = [
        ring_stream("s0", period=250, size=250),
        ring_stream("s1", period=250, size=750, src="d1", dst="d3"),
    ]
    params = ExpansionParams(cps=10, alpha=5, strategy="traffic-volume")
    g, report = expand_on_ring(streams, params)
    assert report.budgets == {"s0": 11, "s1": 9}
    assert len(g.vids_of("s0")) == 11 and len(g.vids_of("s1")) == 9


def test_expand_deterministic_ladder_layout():
    streams = [ring_stream("s0")]
    params = ExpansionParams(cps=6, scheme="deterministic")
    g, _ = expand_on_ring(streams, params)
    got = sorted((g.config(v).route_index, g.config(v).phase) for v in live_vids(g))
    # delta is the single stream's 4-tick source transmission time
    assert got == [(0, 0), (0, 4), (0, 8), (1, 0), (1, 4), (1, 8)]


def test_expand_two_step_strategies_respect_global_budget():
    streams = [ring_stream(f"s{i}", src=f"d{i % 4}", dst=f"d{(i + 2) % 4}")
               for i in range(4)]
    for strategy in ("avg-degree", "page-rank"):
        params = ExpansionParams(cps=8, alpha=3, strategy=strategy, rng_seed=2)
        g, report = expand_on_ring(streams, params)
        assert g.vertex_count <= 8 * len(streams)
        for s in streams:  # everyone keeps at least the base budget
            assert len(g.vids_of(s.id)) >= 3
        assert report.budgets.keys() == {s.id for s in streams}


def test_expand_never_touches_old_streams():
    old = ring_stream("old")
    g, _ = expand_on_ring([old], ExpansionParams(cps=5, rng_seed=7))
    before = set(g.vids_of("old"))
    new = ring_stream("new", src="d1", dst="d3")
    net = gen_ring(4)
    batch = StreamBatch(1, add=[new])
    routes = {"new": candidate_routes(net, "d1", "d3", 2)}
    expand(g, batch, ExpansionParams(cps=5, rng_seed=7), net, routes, [old, new],
           Random(7))
    assert set(g.vids_of("old")) == before
    assert len(g.vids_of("new")) == 5


@pytest.mark.parametrize("strategy", ["homogeneous", "page-rank"])
@pytest.mark.parametrize("scheme", ["deterministic", "randomized"])
def test_expand_computes_occupancy_once_per_candidate_route(monkeypatch, strategy,
                                                            scheme):
    real = timing.link_occupancy
    calls = []

    def counted(net, stream, route, phase):
        calls.append((stream.id, route.nodes, phase))
        return real(net, stream, route, phase)

    for module in (timing, conflict_graph):
        monkeypatch.setattr(module, "link_occupancy", counted)
    streams = [ring_stream("s0"), ring_stream("s1", src="d1", dst="d3"),
               ring_stream("s2", src="d0", dst="d1")]
    params = ExpansionParams(cps=10, alpha=3, scheme=scheme, strategy=strategy)
    g, _ = expand_on_ring(streams, params)
    net = gen_ring(4)
    assert sorted(calls) == sorted(
        (s.id, r.nodes, 0)
        for s in streams
        for r in candidate_routes(net, s.src, s.dst, 2)
    )
    assert g.vertex_count == 30


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 12),
    st.sampled_from(["homogeneous", "traffic-volume", "avg-degree", "page-rank"]),
    st.sampled_from(["deterministic", "randomized"]),
    st.integers(0, 10),
)
def test_expand_budget_conservation(n_streams, cps, strategy, scheme, seed):
    rng = Random(seed)
    streams = []
    for i in range(n_streams):
        src = rng.randrange(4)
        dst = (src + rng.randrange(1, 4)) % 4
        streams.append(
            ring_stream(
                f"s{i}",
                period=rng.choice([250, 500, 1000]),
                size=rng.choice([125, 500, 1500]),
                src=f"d{src}",
                dst=f"d{dst}",
            )
        )
    alpha = min(5, cps)
    params = ExpansionParams(cps=cps, alpha=alpha, strategy=strategy,
                             scheme=scheme, rng_seed=seed)
    g, report = expand_on_ring(streams, params)
    vbar = cps * n_streams
    assert g.vertex_count <= vbar
    assert g.vertex_count + sum(report.surplus.values()) == vbar
    for s in streams:
        vids = g.vids_of(s.id)
        assert len(vids) >= 1
        assert len({g.config(v).key for v in vids}) == len(vids)


def test_raw_extras_sum_property():
    rng = Random(0)
    for _ in range(50):
        n = rng.randrange(2, 6)
        streams = [
            vol_stream(f"s{i}", rng.choice([125, 250, 500, 750, 1000]),
                       rng.choice([250, 500, 1000, 2000]))
            for i in range(n)
        ]
        r_i = rng.randrange(0, 40)
        raws = raw_traffic_volume(batch_of(*streams), r_i, streams)
        assert raws is not None
        assert all(v >= 0 for v in raws.values())
        assert sum(raws.values()) == r_i  # exact rationals
