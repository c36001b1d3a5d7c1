import functools
import itertools
import time
from dataclasses import asdict
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsnplan import solver
from tsnplan.conflict_graph import Configuration, ConflictGraph
from tsnplan.expansion import ExpansionParams
from tsnplan.harness import (
    ExperimentConfig,
    build_scenario,
    build_topology,
    gen_ring,
    gen_streams,
    plan_to_dict,
)
from tsnplan.model import END_DEVICE, Network, Node, Stream, StreamBatch, hypercycle
from tsnplan.routing import Route, candidate_routes
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

from conftest import (
    build_config, colors, mkstream, neighbors, shared_link_net, through_route,
)
from solver_oracle import oracle_gfh_solve


class FakeGraph:
    """Minimal structure-only stand-in implementing the solver's graph
    protocol: arbitrary adjacency, colors, and per-vertex tie-break data.
    Without `route` and `phase`, every route index is 0 and every phase
    unique."""

    def __init__(self, n, edges, color_of, route=None, phase=None):
        self.n = n
        self._color_of = color_of
        self._route = np.array([0] * n if route is None else route, dtype=np.int64)
        self._phase = np.array(range(n) if phase is None else phase, dtype=np.int64)
        rows = [sorted({u for e in edges if v in e for u in e if u != v})
                for v in range(n)]
        self._csr = (
            np.cumsum([0] + [len(r) for r in rows]),
            np.array([u for r in rows for u in r], dtype=np.int64),
        )

    def csr(self):
        return self._csr

    def columns(self, colors):
        where = {c: i for i, c in enumerate(colors)}
        index = np.array(
            [where.get(self._color_of[v], -1) for v in range(self.n)], dtype=np.int64
        )
        return index, self._route, self._phase

    def vids_of(self, color):
        return [v for v in range(self.n) if self._color_of[v] == color]


def exhaustive_best(fake: FakeGraph, colors, required):
    """Maximum number of colors admittable by ANY independent colorful set
    that covers all required colors; None if required colors cannot all be
    covered."""
    per_color = [fake.vids_of(c) for c in colors]
    adj = {v: set(neighbors(fake, v)) for v in range(fake.n)}
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


def test_a_resolved_colors_other_vertices_stop_counting_as_free():
    # "a" resolves first and takes the isolated vertex 0; its vertex 1 is
    # then excluded, so b's vertices 2 and 3 both have feasible degree 0 and
    # the phase decides for 2
    fake = FakeGraph(4, [(1, 2)], {0: "a", 1: "a", 2: "b", 3: "b"}, phase=[0, 0, 0, 1])
    assert gfh_solve(fake, [], ["a", "b"]) == ({"a": 0, "b": 2}, set())


def test_a_step_passes_over_excluded_vertices_and_counts_arcless_ones():
    # pin p on 0 excludes a's vertices 1, 3 and 5, whose only arc goes to
    # the pin, and b (one vertex) goes next and takes 9, which excludes a's
    # 2 and 4: each of these would win at phase 0 if it still counted. Of
    # a's free vertices, 6 neighbours the unlisted, free vertex 10, and 7
    # and 8 have no arc and tie on phase 1, so the lower vid wins
    color_of = {0: "p", **{v: "a" for v in range(1, 9)}, 9: "b", 10: "z"}
    phase = [0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0]
    edges = [(0, 1), (0, 3), (0, 5), (2, 9), (4, 9), (6, 10)]
    fake = FakeGraph(11, edges, color_of, phase=phase)
    args = ["p"], ["a", "b"]
    expected = ({"p": 0, "b": 9, "a": 7}, set())
    assert gfh_solve(fake, *args, pinned=[("p", 0)]) == expected
    assert oracle_gfh_solve(fake, *args, pinned=[("p", 0)]) == expected


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


PALETTE = ["a", "b", "c", "d", "e"]


@st.composite
def solver_cases(draw):
    """A random FakeGraph of drawn mean degree, with few distinct (phase,
    route) pairs so that vertex ties are common, and a solve over part of
    its colors: vertices of the other colors stay uncolored, and a listed
    color may have no vertex. The vertices share the first one to five
    colors, so that a color may hold up to about 40 vertices and a color's
    step meets free and excluded vertices mixed; at the lowest mean degrees
    many vertices have no arc. Pins name vertices of their own color, in any
    order, possibly clashing (adjacent to an earlier pin, or a color pinned
    twice)."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(0, 40))
    degree = draw(st.sampled_from([0.5, 1, 2, 4, 8]))
    palette = PALETTE[: rng.randrange(1, len(PALETTE) + 1)]
    color_of = {v: rng.choice(palette) for v in range(n)}
    # the pairs come from a plain Random: one draw per pair through `rng`
    # would cost seconds over the examples
    pick = Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if pick.random() < degree / max(n - 1, 1)]
    route = [rng.randrange(2) for _ in range(n)]
    phase = [rng.randrange(3) for _ in range(n)]
    listed = rng.sample(PALETTE, rng.randrange(len(PALETTE) + 1))
    required = rng.sample(listed, rng.randrange(len(listed) + 1))
    optional = [c for c in listed if c not in required]
    pinnable = [(c, v) for v, c in color_of.items() if c in listed]
    pinned = [rng.choice(pinnable) for _ in range(rng.randrange(5))] if pinnable else []
    fake = FakeGraph(n, edges, color_of, route, phase)
    return fake, required, optional, pinned


def solve_or_raised(solve, fake, required, optional, pinned):
    try:
        return solve(fake, required, optional, pinned=pinned)
    except RequiredColorUnsatisfiable as e:
        return "raised", e.color


@settings(max_examples=400, deadline=None)
@given(solver_cases(), st.booleans())
def test_gfh_solve_matches_the_sequential_oracle(case, pass_columns):
    fake, required, optional, pinned = case
    columns = fake.columns(required + optional) if pass_columns else None
    solve = functools.partial(gfh_solve, columns=columns)
    got = solve_or_raised(solve, fake, required, optional, pinned)
    assert got == solve_or_raised(oracle_gfh_solve, fake, required, optional, pinned)


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
    assert g.configs([selection["old"]])[0].phase == 10


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


def test_offensive_plan_without_survivors_returns_none_unsolved(monkeypatch):
    net = shared_link_net()
    g = ConflictGraph()
    old1 = cfg(net, "old", 0, 0)
    for c in (old1, cfg(net, "old", 0, 10), cfg(net, "new", 1, 0)):
        g.add_configuration(c)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return gfh_solve(*args, **kwargs)

    monkeypatch.setattr(solver, "gfh_solve", counted)
    assert offensive_plan(g, {}, ["new"]) is None
    assert calls == []
    assert offensive_plan(g, {"old": old1}, ["new"])[1] == set()
    assert len(calls) == 1


def test_defensive_plan_pins_each_survivor_to_its_own_vertex():
    # "b" shares route index and phase 0 with "a", which must not pin b to
    # a's vertex; a survivor whose configuration is gone cannot be pinned
    net = shared_link_net()
    g = ConflictGraph()
    for c in (cfg(net, "a", 0, 0), cfg(net, "a", 0, 40), cfg(net, "b", 1, 70),
              cfg(net, "b", 1, 0)):
        g.add_configuration(c)
    selection, rejected = defensive_plan(
        g, {"b": cfg(net, "b", 1, 0), "a": cfg(net, "a", 0, 40)}, [])
    assert selection == {"b": 3, "a": 1} and rejected == set()
    with pytest.raises(RuntimeError, match="'a'"):
        defensive_plan(g, {"a": cfg(net, "a", 0, 20)}, [])


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
        route = candidate_routes(net, s.src, s.dst, 1)[0]
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


def test_validate_plan_names_the_exact_hypercycle_past_int64():
    # three periods near 2**31 on (b0, b1): their hypercycle, about 9.9e27,
    # does not fit in an int64
    net = shared_link_net()
    periods = (2147483647, 2147483629, 2147483587)
    plan = TrafficPlan(0, {
        f"s{i}": cfg(net, f"s{i}", i, 0, period=period, size=125)
        for i, period in enumerate(periods)
    })
    h = 9903519940736477367306812281
    assert hypercycle(periods) == h > 2**63
    count = sum(h // p for p in periods)
    bound = rf"link \('b0', 'b1'\): {count} intervals over hypercycle {h} exceed"
    with pytest.raises(OracleBoundExceeded, match=bound):
        validate_plan(net, plan)


def test_validate_plan_judges_an_entry_by_its_own_route():
    # x runs a0 -> z0 but carries the schedule of a1 -> z1, which never
    # crosses (b1, z0); y's z1 -> b1 -> z0 meets x there only
    net = shared_link_net()
    x = mkstream("x")
    wrong = link_occupancy(net, x, through_route(net, 1), 0)
    y = mkstream("y", src="z1", dst="z0")
    y_route = Route((net.link("z1", "b1"), net.link("b1", "z0")))
    plan = TrafficPlan(0, {
        "x": Configuration(x, 0, through_route(net, 0), 0, wrong),
        "y": build_config(net, y, 0, y_route, 6),
    })
    assert validate_plan(net, plan) == [
        "overlap on link ('b1', 'z0'): x and y both occupy ticks [11, 14)",
    ]


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
    configs = dict(p.state.plan.assignments)
    m = p.iterate(StreamBatch(1))
    assert p.state.admitted == before and m.rejected == 0
    # a survivor kept on its pinned vertex keeps its Configuration object
    assert all(p.state.plan.assignments[sid] is c for sid, c in configs.items())
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
    assert colors(p.graph) == {"s0", "s3", "s4"}


def test_iterate_purges_rejected_streams():
    # the 10-tick shared-link window of a 20-tick period holds at most two
    # 4-tick frames, so at least 2 of the 4 streams must go
    p = planner_on_shared(cps=3)
    streams = [mkstream(f"s{i}", period=20, src=f"a{i}", dst=f"z{i}")
               for i in range(4)]
    m = p.iterate(StreamBatch(0, add=streams))
    assert m.rejected >= 2
    assert colors(p.graph) == set(p.state.admitted)
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
    assert colors(p.graph) == {"s0"}
    assert m.routing_ms >= 0 and m.total_ms >= m.routing_ms + m.solving_ms


def test_metrics_fields():
    p = planner_on_shared()
    m = p.iterate(StreamBatch(0, add=[mkstream("s0", period=500)]))
    assert (m.strategy, m.scheme, m.cps) == ("homogeneous", "randomized", 6)
    assert m.iteration == 0 and m.vertices == 6
    assert m.expansion_ms >= 0 and m.solving_ms >= 0
    assert m.total_ms >= m.solving_ms


# -- the offensive solve runs only where it can win -----------------------


def small_grid_scenario(seed):
    """A smaller dynamic-grid3x3: 50 streams on a 3x3 grid, then 30 updates
    of +3/-3, page-rank budgets."""
    cfg = ExperimentConfig(
        topology={"kind": "grid", "rows": 3, "cols": 3}, initial_streams=50,
        iterations=30, add_per_iteration=3, del_per_iteration=3, cps=10,
        strategy="page-rank", seed=seed,
    )
    net = build_topology(cfg)
    return cfg, net, build_scenario(cfg, net)


def plan_batches(cfg, net, batches):
    """Each batch's plan as (route index, phase) per stream, its rejected new
    streams and its non-timing metrics, as `run_experiment` drives them."""
    p = Planner(net, cfg.expansion_params(), k_routes=cfg.k_routes)
    out = []
    for b in batches:
        delete = [d for d in b.delete if d in p.state.admitted]
        m = p.iterate(StreamBatch(b.iteration, b.add, delete))
        plan = {sid: (c.route_index, c.phase) for sid, c in p.state.plan.assignments.items()}
        rejected = {s.id for s in b.add} - set(p.state.admitted)
        fields = {k: v for k, v in asdict(m).items() if not k.endswith("_ms")}
        out.append((plan, rejected, fields))
    return out


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_skipping_the_offensive_solve_changes_no_plan(monkeypatch, seed):
    cfg, net, batches = small_grid_scenario(seed)
    today = plan_batches(cfg, net, batches)

    # the reference re-solves offensively over every survivor on every batch
    survivors, wins, skipped = {}, [], []
    defensive = solver.defensive_plan

    def recorded_defensive(g, survivors_now, new_ids):
        survivors["now"] = survivors_now
        result = defensive(g, survivors_now, new_ids)
        skipped.append(bool(survivors_now) and not result[1])
        return result

    def every_offensive(g, _, new_ids):
        try:
            return gfh_solve(g, required=list(survivors["now"]), optional=new_ids)
        except RequiredColorUnsatisfiable:
            return None

    def counted_choose(d, o):
        chosen = choose_plan(d, o)
        wins.append(chosen is not d)
        return chosen

    monkeypatch.setattr(solver, "defensive_plan", recorded_defensive)
    monkeypatch.setattr(solver, "offensive_plan", every_offensive)
    monkeypatch.setattr(solver, "choose_plan", counted_choose)
    reference = plan_batches(cfg, net, batches)

    assert len(today) == len(reference) == len(batches)
    for b, got, want in zip(batches, today, reference):
        assert got == want, f"batch {b.iteration}"
    # both paths ran: a solve that won, and one that today's planner skips
    assert any(wins) and any(skipped)


def test_iterate_calls_offensive_plan_once_per_batch(monkeypatch):
    """`Planner.iterate` calls `offensive_plan` once per batch, with three
    positional arguments, also when it passes no survivors: on the offline
    batch and on every batch whose defensive plan rejected nothing. The
    benchmark's traced check `solver.offensive.calls == batches` wraps the
    function as `timed(g, survivors, new_ids)` and depends on this."""
    cfg, net, batches = small_grid_scenario(0)
    passed = []
    offensive = solver.offensive_plan

    def counted(g, survivors, new_ids):
        passed.append(len(survivors))
        return offensive(g, survivors, new_ids)

    monkeypatch.setattr(solver, "offensive_plan", counted)
    plan_batches(cfg, net, batches)
    assert len(passed) == len(batches)
    assert passed[0] == 0 and passed.count(0) > 1 and max(passed) > 0
