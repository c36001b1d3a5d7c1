import itertools
import time
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

from tsnplan.conflict_graph import Configuration, ConflictGraph
from tsnplan.expansion import ExpansionParams
from tsnplan.harness import gen_ring, gen_streams, plan_to_dict
from tsnplan.model import END_DEVICE, Network, Node, Stream, StreamBatch, hypercycle
from tsnplan.routing import shortest_path
from tsnplan.solver import (
    Planner,
    RequiredColorUnsatisfiable,
    TrafficPlan,
    choose_plan,
    defensive_plan,
    gfh_solve,
    offensive_plan,
    validate_plan,
)
from tsnplan.timing import OracleBoundExceeded, link_occupancy

from conftest import build_config, mkstream, neighbors, shared_link_net, through_route


class FakeGraph:
    """Minimal structure-only stand-in implementing the solver's graph
    protocol: arbitrary adjacency, colors, and per-vertex tie-break data."""

    def __init__(self, n, edges, color_of):
        self.slot_count = n
        self._color_of = color_of
        rows = [sorted({u for e in edges if v in e for u in e if u != v})
                for v in range(n)]
        self._csr = (
            np.cumsum([0] + [len(r) for r in rows]),
            np.array([u for r in rows for u in r], dtype=np.int64),
        )

    def csr(self):
        return self._csr

    def vids_of(self, color):
        return [v for v in range(self.slot_count) if self._color_of[v] == color]

    def config(self, vid):
        # unique phases make the vertex tie-break deterministic and visible
        return SimpleNamespace(phase=vid, route_index=0)


def exhaustive_best(fake: FakeGraph, colors, required):
    """Maximum number of colors admittable by ANY independent colorful set
    that covers all required colors; None if required colors cannot all be
    covered."""
    per_color = [fake.vids_of(c) for c in colors]
    adj = {v: set(neighbors(fake, v)) for v in range(fake.slot_count)}
    best = None
    req = [c in required for c in colors]
    for picks in itertools.product(*[vids + [None] for vids in per_color]):
        if any(r and p is None for r, p in zip(req, picks)):
            continue
        chosen = [p for p in picks if p is not None]
        if any(b in adj[a] for a, b in itertools.combinations(chosen, 2)):
            continue
        if best is None or len(chosen) > best:
            best = len(chosen)
    return best


def check_solution(fake, colors, selection, rejected):
    assert set(selection) | rejected == set(colors)
    assert not (set(selection) & rejected)
    for c, v in selection.items():
        assert fake._color_of[v] == c
    chosen = list(selection.values())
    for a, b in itertools.combinations(chosen, 2):
        assert b not in neighbors(fake, a)


def test_edgeless_selects_all_colors():
    fake = FakeGraph(3, [], {0: "a", 1: "b", 2: "c"})
    selection, rejected = gfh_solve(fake, [], ["a", "b", "c"])
    assert rejected == set() and set(selection) == {"a", "b", "c"}


def test_triangle_with_isolated_escape_vertices():
    # vertices 0,1,2 form a triangle; 3,4,5 are isolated spares of the same
    # three colors -> all colors admitted via the spares
    color_of = {0: "a", 1: "b", 2: "c", 3: "a", 4: "b", 5: "c"}
    fake = FakeGraph(6, [(0, 1), (1, 2), (0, 2)], color_of)
    selection, rejected = gfh_solve(fake, [], ["a", "b", "c"])
    assert rejected == set()
    check_solution(fake, ["a", "b", "c"], selection, rejected)


def test_pinned_vertex_starves_optional_color():
    # pinned color p owns vertex 0, adjacent to both vertices of optional q
    fake = FakeGraph(3, [(0, 1), (0, 2)], {0: "p", 1: "q", 2: "q"})
    selection, rejected = gfh_solve(fake, ["p"], ["q"], pinned=[("p", 0)])
    assert selection == {"p": 0} and rejected == {"q"}


def test_required_color_unsatisfiable():
    fake = FakeGraph(2, [(0, 1)], {0: "p", 1: "q"})
    with pytest.raises(RequiredColorUnsatisfiable):
        gfh_solve(fake, ["p", "q"], [], pinned=[("p", 0)])


def test_fewest_feasible_color_goes_first():
    # color "b" has one vertex (2), colors "a" has two (0, 1); vertex 2 is
    # adjacent to 0 only, so solving b first keeps both colors
    fake = FakeGraph(3, [(0, 2)], {0: "a", 1: "a", 2: "b"})
    selection, rejected = gfh_solve(fake, [], ["a", "b"])
    assert rejected == set()
    assert selection == {"b": 2, "a": 1}


def test_vertex_tie_break_prefers_lower_degree():
    # all colors tie at 2 feasible vertices; "a" resolves first by id order
    # and must prefer its degree-0 vertex 1 over the degree-2 vertex 0
    color_of = {0: "a", 1: "a", 2: "b", 3: "b", 4: "c", 5: "c"}
    fake = FakeGraph(6, [(0, 2), (0, 4)], color_of)
    selection, rejected = gfh_solve(fake, [], ["a", "b", "c"])
    assert selection["a"] == 1 and rejected == set()


def test_solver_oracle_random_instances():
    rng = Random(42)
    optimal = 0
    for trial in range(60):
        n = rng.randrange(3, 13)
        colors = [f"c{i}" for i in range(rng.randrange(1, 6))]
        color_of = {v: rng.choice(colors) for v in range(n)}
        colors = sorted(set(color_of.values()))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if color_of[u] != color_of[v] and rng.random() < 0.35
        ]
        fake = FakeGraph(n, edges, color_of)
        selection, rejected = gfh_solve(fake, [], colors)
        check_solution(fake, colors, selection, rejected)
        best = exhaustive_best(fake, colors, required=set())
        assert len(selection) <= best
        if len(selection) == best:
            optimal += 1
    assert optimal >= 0.7 * 60


# -- planning on real conflict graphs -----------------------------------


def cfg(net, sid, i, phi, period=100, size=500):
    s = mkstream(sid, period=period, size=size, src=f"a{i}", dst=f"z{i}")
    return build_config(net, s, 0, through_route(net, i), phi)


def test_offensive_beats_defensive_by_reconfiguring():
    # old stream sits where the new stream's only configuration must go;
    # a free alternative exists, but only the offensive plan may take it
    net = shared_link_net()
    g = ConflictGraph()
    old1 = cfg(net, "old", 0, 0)
    old2 = cfg(net, "old", 0, 10)
    new1 = cfg(net, "new", 1, 0)
    for c in (old1, old2, new1):
        g.add_configuration(c)
    assert g.edge_count == 1

    d = defensive_plan(g, {"old": old1}, ["new"])
    assert d[1] == {"new"}
    o = offensive_plan(g, {"old": old1}, ["new"])
    assert o is not None and o[1] == set()
    selection, rejected = choose_plan(d, o)
    assert rejected == set()
    assert g.config(selection["old"]).phase == 10


def test_offensive_equals_defensive_when_nothing_moves():
    net = shared_link_net()
    g = ConflictGraph()
    old1 = cfg(net, "old", 0, 0)
    new1 = cfg(net, "new", 1, 20)
    g.add_configuration(old1)
    g.add_configuration(new1)
    d = defensive_plan(g, {"old": old1}, ["new"])
    o = offensive_plan(g, {"old": old1}, ["new"])
    assert d[1] == o[1] == set()
    assert choose_plan(d, o) == d


def test_choose_plan_rules():
    d = ({"a": 1}, {"x", "y"})
    o = ({"a": 2}, set())
    assert choose_plan(d, o) is o
    assert choose_plan(d, ({"a": 2}, {"x", "y"})) is d  # tie -> defensive
    assert choose_plan(d, None) is d


def test_validate_plan_ok_and_empty():
    net = shared_link_net()
    assert validate_plan(net, TrafficPlan(0)) == []
    plan = TrafficPlan(0, {"s0": cfg(net, "s0", 0, 0), "s1": cfg(net, "s1", 1, 10)})
    assert validate_plan(net, plan) == []


def test_validate_plan_reports_overlap():
    net = shared_link_net()
    plan = TrafficPlan(0, {"s0": cfg(net, "s0", 0, 0), "s1": cfg(net, "s1", 1, 1)})
    problems = validate_plan(net, plan)
    assert len(problems) == 1
    assert "('b0', 'b1')" in problems[0] and "[6, 9)" in problems[0]


def test_validate_plan_reports_cross_period_overlap():
    net = shared_link_net()
    plan = TrafficPlan(0, {
        "s0": cfg(net, "s0", 0, 0, period=100),
        "s1": cfg(net, "s1", 1, 97, period=200),  # collides at tick 102
    })
    problems = validate_plan(net, plan)
    assert any("overlap" in p for p in problems)


def test_validate_plan_reports_non_harmonic_overlap():
    net = shared_link_net()
    plan = TrafficPlan(0, {
        "s0": cfg(net, "s0", 0, 0, period=100),
        "s1": cfg(net, "s1", 1, 53, period=150),  # first collides at tick 208
    })
    problems = validate_plan(net, plan)
    assert len(problems) == 1 and "('b0', 'b1')" in problems[0]
    assert "[208, 209)" in problems[0]


def test_validate_plan_sweeps_each_link_over_its_own_hypercycle():
    # coprime periods on disjoint routes: the global hypercycle is ~1e9
    # ticks, each link's is one period
    net = gen_ring(6)
    plan = TrafficPlan(0, {})
    for i, period in zip((0, 2, 4), (997, 1009, 1013)):
        s = Stream(f"s{i}", f"d{i}", f"d{i + 1}", period, 125)
        route = shortest_path(net, s.src, s.dst)
        plan.assignments[s.id] = build_config(net, s, 0, route, 0)
    t0 = time.perf_counter()
    assert validate_plan(net, plan) == []
    assert time.perf_counter() - t0 < 1.0


def test_validate_plan_refuses_a_link_past_the_oracle_bound():
    # coprime periods on one shared link: its hypercycle is 1,019,050,649
    # ticks, about 3.04e6 intervals
    net = shared_link_net()
    plan = TrafficPlan(0, {
        f"s{i}": cfg(net, f"s{i}", i, 0, period=period, size=125)
        for i, period in enumerate((997, 1009, 1013))
    })
    t0 = time.perf_counter()
    bound = r"link \('b0', 'b1'\).*hypercycle 1019050649"
    with pytest.raises(OracleBoundExceeded, match=bound):
        validate_plan(net, plan)
    assert time.perf_counter() - t0 < 1.0


def test_validate_plan_reports_deadline_miss():
    net = shared_link_net()
    s = mkstream("late", period=10, size=500)  # arrival 15 > period 10
    bad = Configuration(
        s, 0, through_route(net, 0), 0, link_occupancy(net, s, through_route(net, 0), 0)
    )
    problems = validate_plan(net, TrafficPlan(0, {"late": bad}))
    assert any("deadline" in p for p in problems)


def test_validate_plan_reports_a_late_streams_overlap_past_the_hypercycle():
    # a holds (b0, b1) during [103, 107), past the end of the 100-tick
    # hypercycle; b's next repetition holds it during [105, 109)
    net = shared_link_net()
    a = mkstream("a", period=100, src="a0", dst="z0")
    route = through_route(net, 0)
    late = Configuration(a, 0, route, 98, link_occupancy(net, a, route, 0))
    plan = TrafficPlan(0, {"a": late, "b": cfg(net, "b", 1, 0)})
    assert validate_plan(net, plan) == [
        "deadline miss: a arrives at 113 > 100",
        "overlap on link ('b0', 'b1'): a and b both occupy ticks [5, 7)",
    ]


# -- Planner pipeline ----------------------------------------------------


def planner_on_shared(cps=6, n_pairs=4, seed=0):
    net = shared_link_net(n_pairs=n_pairs)
    return Planner(net, ExpansionParams(cps=cps, alpha=min(5, cps), rng_seed=seed))


def test_iterate_admits_and_tracks_state():
    p = planner_on_shared()
    streams = [mkstream(f"s{i}", period=500, src=f"a{i}", dst=f"z{i}")
               for i in range(3)]
    m = p.iterate(StreamBatch(0, add=streams))
    assert m.rejected == 0
    assert set(p.state.admitted) == {"s0", "s1", "s2"}
    assert validate_plan(p.net, p.state.plan) == []
    assert m.vertices == p.graph.vertex_count == 18


def test_iterate_empty_batch_is_noop():
    p = planner_on_shared()
    p.iterate(StreamBatch(0, add=[mkstream("s0", period=500)]))
    before = dict(p.state.admitted)
    m = p.iterate(StreamBatch(1))
    assert p.state.admitted == before and m.rejected == 0
    assert p.state.plan.assignments.keys() == before.keys()


def test_iterate_set_algebra_with_deletes():
    p = planner_on_shared()
    streams = [mkstream(f"s{i}", period=500, src=f"a{i}", dst=f"z{i}")
               for i in range(4)]
    p.iterate(StreamBatch(0, add=streams))
    adds = [mkstream("s4", period=500, src="a0", dst="z1")]
    p.iterate(StreamBatch(1, add=adds, delete=["s1", "s2"]))
    assert set(p.state.admitted) == {"s0", "s3", "s4"}
    assert set(p.state.plan.assignments) == {"s0", "s3", "s4"}
    assert p.graph.colors() == {"s0", "s3", "s4"}


def test_iterate_purges_rejected_streams():
    # the 10-tick shared-link window of a 20-tick period holds at most two
    # 4-tick frames, so at least 2 of the 4 streams must go
    p = planner_on_shared(cps=3)
    streams = [mkstream(f"s{i}", period=20, src=f"a{i}", dst=f"z{i}")
               for i in range(4)]
    m = p.iterate(StreamBatch(0, add=streams))
    assert m.rejected >= 2
    assert p.graph.colors() == set(p.state.admitted)
    assert set(p.state.plan.assignments) == set(p.state.admitted)
    assert validate_plan(p.net, p.state.plan) == []


def test_iterate_rejects_bad_batch():
    p = planner_on_shared()
    p.iterate(StreamBatch(0, add=[mkstream("s0", period=500)]))
    with pytest.raises(ValueError):
        p.iterate(StreamBatch(1, delete=["ghost"]))


def test_failed_batch_leaves_planner_usable():
    net = gen_ring(6)
    first = StreamBatch(0, add=gen_streams(net, 12, [500], [500], seed=3))
    y = Stream("y", "d1", "d4", 500, 125)
    bad = StreamBatch(1, add=[Stream("x", "d0", "nowhere", 500, 125), y],
                      delete=["s0"])
    clean = StreamBatch(2, add=[Stream("x", "d0", "d3", 500, 125)], delete=["s1"])

    def planner_after_first_batch():
        p = Planner(net, ExpansionParams(cps=6, alpha=5, rng_seed=1))
        p.iterate(first)
        assert "s0" in p.state.admitted
        return p

    # the stream without a route is rejected alone; the rest of the batch
    # proceeds exactly as if it had not been offered
    p = planner_after_first_batch()
    m = p.iterate(bad)
    ref = planner_after_first_batch()
    m_ref = ref.iterate(StreamBatch(1, add=[y], delete=["s0"]))
    assert m.rejected == m_ref.rejected + 1
    assert "x" not in p.state.admitted and "s0" not in p.state.admitted
    assert p.state.admitted == ref.state.admitted
    assert plan_to_dict(p.state.plan) == plan_to_dict(ref.state.plan)
    # and a later clean batch still works
    p.iterate(clean)
    ref.iterate(clean)
    assert "x" in p.state.admitted
    assert plan_to_dict(p.state.plan) == plan_to_dict(ref.state.plan)


def test_unroutable_stream_leaves_its_budget_to_the_others():
    net = shared_link_net(1)
    net = Network(
        list(net.nodes.values()) + [Node("lonely", END_DEVICE)],
        net.links.values(),
    )
    p = Planner(net, ExpansionParams(cps=6, alpha=5, rng_seed=1))
    m = p.iterate(StreamBatch(0, add=[
        mkstream("s0", period=500), mkstream("s1", period=500, dst="lonely"),
    ]))
    assert m.rejected == 1 and set(p.state.admitted) == {"s0"}
    assert m.vertices == 6  # cps x one live stream, all of it for s0
    assert p.graph.colors() == {"s0"}
    assert m.routing_ms >= 0 and m.total_ms >= m.routing_ms + m.solving_ms


def test_metrics_fields():
    p = planner_on_shared()
    m = p.iterate(StreamBatch(0, add=[mkstream("s0", period=500)]))
    assert (m.strategy, m.scheme, m.cps) == ("homogeneous", "randomized", 6)
    assert m.iteration == 0 and m.vertices == 6
    assert m.expansion_ms >= 0 and m.solving_ms >= 0
    assert m.total_ms >= m.solving_ms
