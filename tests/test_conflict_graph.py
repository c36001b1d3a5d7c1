import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsnplan.conflict_graph import (
    PAGERANK_DAMPING,
    PAGERANK_ITERATIONS,
    Configuration,
    ConflictGraph,
    DuplicateConfiguration,
    NoVertices,
)
from tsnplan.timing import brute_force_conflict, frames_conflict, link_occupancy

from conftest import (
    build_config,
    live_vids,
    max_phase,
    mkstream,
    neighbors,
    shared_link_net,
    through_route,
)

# On shared_link_net (processing 0, propagation 1, rate 1000) a stream of
# size S entering at phase phi occupies the shared link (b0, b1) during
# [phi + T + 1, phi + 2T + 1) with T = transmission ticks of S.


def cfg(net, sid, i, phi, period=100, size=500):
    s = mkstream(sid, period=period, size=size, src=f"a{i}", dst=f"z{i}")
    return build_config(net, s, 0, through_route(net, i), phi)


def occupancy(net, c: Configuration):
    """The configuration's own intervals, recomputed at its phase."""
    return link_occupancy(net, c.stream, c.route, c.phase)


def fresh_copy(g: ConflictGraph) -> ConflictGraph:
    out = ConflictGraph()
    for v in live_vids(g):
        out.add_configuration(g.config(v))
    return out


def edge_keys(g: ConflictGraph) -> set:
    return {
        frozenset((g.config(u).key, g.config(v).key))
        for u in live_vids(g)
        for v in neighbors(g, u)
    }


def test_insert_into_empty_graph(shared_net):
    g = ConflictGraph()
    v = g.add_configuration(cfg(shared_net, "s0", 0, 0))
    assert g.vertex_count == 1 and g.edge_count == 0 and neighbors(g, v) == []


def test_same_phase_shared_link_edge(shared_net):
    g = ConflictGraph()
    u = g.add_configuration(cfg(shared_net, "s0", 0, 0))
    v = g.add_configuration(cfg(shared_net, "s1", 1, 0))
    assert g.edge_count == 1 and neighbors(g, u) == [v]


def test_no_intra_color_edges(shared_net):
    g = ConflictGraph()
    g.add_configuration(cfg(shared_net, "s0", 0, 0))
    g.add_configuration(cfg(shared_net, "s0", 0, 1))  # overlapping phases
    assert g.edge_count == 0


def test_triangle(shared_net):
    g = ConflictGraph()
    configs = [cfg(shared_net, f"s{i}", i, i) for i in range(3)]  # phases 0,1,2
    for a, b in itertools.combinations(configs, 2):
        assert brute_force_conflict(
            occupancy(shared_net, a), a.stream.period,
            occupancy(shared_net, b), b.stream.period,
        )
    vids = [g.add_configuration(c) for c in configs]
    assert g.edge_count == 3
    for u, v in itertools.combinations(vids, 2):
        assert v in neighbors(g, u)


def test_duplicate_configuration_raises(shared_net):
    g = ConflictGraph()
    g.add_configuration(cfg(shared_net, "s0", 0, 0))
    with pytest.raises(DuplicateConfiguration):
        g.add_configuration(cfg(shared_net, "s0", 0, 0))


def test_remove_only_color(shared_net):
    g = ConflictGraph()
    g.add_configuration(cfg(shared_net, "s0", 0, 0))
    g.add_configuration(cfg(shared_net, "s0", 0, 50))
    assert g.remove_stream("s0") == 2
    assert g.vertex_count == 0 and g.edge_count == 0 and g.colors() == set()


def test_remove_absent_color(shared_net):
    assert ConflictGraph().remove_stream("ghost") == 0


def test_remove_one_corner_of_triangle(shared_net):
    g = ConflictGraph()
    for i in range(3):
        g.add_configuration(cfg(shared_net, f"s{i}", i, i))
    assert g.remove_stream("s1") == 1
    assert g.vertex_count == 2 and g.edge_count == 1
    assert edge_keys(g) == edge_keys(fresh_copy(g))


def test_avg_degree_isolated(shared_net):
    g = ConflictGraph()
    g.add_configuration(cfg(shared_net, "s0", 0, 0))
    g.add_configuration(cfg(shared_net, "s1", 1, 50))
    assert g.avg_degree("s0") == 0
    with pytest.raises(NoVertices):
        g.avg_degree("ghost")


def test_avg_degree_mixed():
    # X (size 1500) vertex at phase 0 overlaps A, B, C on the shared link;
    # its phase-9 sibling overlaps only C -> average degree (3 + 1) / 2 = 2
    net = shared_link_net(n_pairs=4)
    g = ConflictGraph()
    g.add_configuration(cfg(net, "x", 0, 0, size=1500))
    g.add_configuration(cfg(net, "x", 0, 9, size=1500))
    for sid, i, phi in (("a", 1, 10), ("b", 2, 13), ("c", 3, 16)):
        g.add_configuration(cfg(net, sid, i, phi))
    assert g.avg_degree("x") == 2


def test_avg_degree_star_center():
    net = shared_link_net(n_pairs=7)
    g = ConflictGraph()
    center = g.add_configuration(cfg(net, "hub", 0, 0, size=1500))
    for j in range(6):  # 1-tick frames inside the hub's 12-tick window
        g.add_configuration(cfg(net, f"leaf{j}", j + 1, 12 + j, size=125))
    assert g.avg_degree("hub") == 6
    assert len(neighbors(g, center)) == 6
    assert g.edge_count == 6  # leaves are pairwise disjoint


def test_degree_sum_is_twice_edge_count(shared_net):
    g = ConflictGraph()
    for i in range(4):
        g.add_configuration(cfg(shared_net, f"s{i}", i, 2 * i))
    assert sum(len(neighbors(g, v)) for v in live_vids(g)) == 2 * g.edge_count


def test_page_rank_single_vertex(shared_net):
    g = ConflictGraph()
    v = g.add_configuration(cfg(shared_net, "s0", 0, 0))
    pr = g.page_rank()
    assert pr[v] == pytest.approx(1.0)


def test_page_rank_triangle_symmetry(shared_net):
    g = ConflictGraph()
    vids = [g.add_configuration(cfg(shared_net, f"s{i}", i, i)) for i in range(3)]
    pr = g.page_rank()
    for v in vids:
        assert pr[v] == pytest.approx(1 / 3)
    assert sum(pr.values()) == pytest.approx(1.0)


def test_page_rank_path_middle_dominates(shared_net):
    # phases 0, 3, 6 with 4-tick frames: ends touch only the middle
    g = ConflictGraph()
    ends = [
        g.add_configuration(cfg(shared_net, "s0", 0, 0)),
        g.add_configuration(cfg(shared_net, "s2", 2, 6)),
    ]
    mid = g.add_configuration(cfg(shared_net, "s1", 1, 3))
    assert g.edge_count == 2
    pr = g.page_rank()
    assert all(pr[mid] > pr[e] for e in ends)
    assert sum(pr.values()) == pytest.approx(1.0)


def test_stream_rank_triangle(shared_net):
    g = ConflictGraph()
    for i in range(3):
        g.add_configuration(cfg(shared_net, f"s{i}", i, i))
    pr = g.page_rank()
    for i in range(3):
        assert g.stream_rank(pr, f"s{i}") == pytest.approx(1 / 3)


def test_stream_rank_sole_owner(shared_net):
    g = ConflictGraph()
    for phi in (0, 20, 40):
        g.add_configuration(cfg(shared_net, "s0", 0, phi))
    pr = g.page_rank()
    assert g.stream_rank(pr, "s0") == pytest.approx(1.0)
    with pytest.raises(NoVertices):
        g.stream_rank(pr, "ghost")


def test_stream_rank_symmetric_four_cycle(shared_net):
    # two colors, two vertices each, every cross-color pair adjacent: the
    # conflict graph is a 4-cycle and each color holds half the mass
    g = ConflictGraph()
    g.add_configuration(cfg(shared_net, "x", 0, 0))
    g.add_configuration(cfg(shared_net, "x", 0, 2))
    g.add_configuration(cfg(shared_net, "y", 1, 1))
    g.add_configuration(cfg(shared_net, "y", 1, 3))
    assert g.edge_count == 4
    pr = g.page_rank()
    assert g.stream_rank(pr, "x") == pytest.approx(0.5)
    assert g.stream_rank(pr, "y") == pytest.approx(0.5)


@st.composite
def graph_scenario(draw):
    """Up to 4 colors x up to 3 configurations with mixed periods/sizes,
    plus a subset of colors to remove afterwards."""
    colors = draw(st.integers(1, 4))
    specs = []
    for i in range(colors):
        period = draw(st.sampled_from([25, 50, 100]))
        size = draw(st.sampled_from([125, 500]))
        n_cfg = draw(st.integers(1, 3))
        phases = draw(
            st.lists(st.integers(0, 50), min_size=n_cfg, max_size=n_cfg, unique=True)
        )
        specs.append((i, period, size, phases))
    removed = draw(st.sets(st.integers(0, colors - 1)))
    return specs, removed


@settings(max_examples=60, deadline=None)
@given(graph_scenario())
def test_edges_match_pairwise_predicate_and_rebuild(scenario):
    specs, removed = scenario
    net = shared_link_net(n_pairs=4)
    g = ConflictGraph()
    for i, period, size, phases in specs:
        s = mkstream(f"s{i}", period=period, size=size, src=f"a{i}", dst=f"z{i}")
        route = through_route(net, i)
        mp = max_phase(net, s, route)
        for phi in dict.fromkeys(p % (mp + 1) for p in phases):
            g.add_configuration(build_config(net, s, 0, route, phi))
    for i in removed:
        g.remove_stream(f"s{i}")

    # incremental removal leaves exactly the graph a fresh build produces
    rebuilt = fresh_copy(g)
    assert g.vertex_count == rebuilt.vertex_count
    assert g.edge_count == rebuilt.edge_count
    assert edge_keys(g) == edge_keys(rebuilt)

    # each row lists, ascending, the live other-colour vertices that the
    # pairwise conflict predicate says conflict with it
    vids = live_vids(g)
    for u in vids:
        cu = g.config(u)
        expected = [
            v for v in vids
            if g.config(v).stream.id != cu.stream.id
            and frames_conflict(
                occupancy(net, cu), cu.stream.period,
                occupancy(net, g.config(v)), g.config(v).stream.period,
            )
        ]
        assert neighbors(g, u) == expected
    assert sum(len(neighbors(g, v)) for v in vids) == 2 * g.edge_count

    # page_rank is bit-identical to a power iteration that adds each row's
    # neighbours in ascending order; the two whole-vector sums use np.sum,
    # as page_rank does
    if vids:
        assert g.page_rank() == reference_page_rank(g)


def reference_page_rank(g: ConflictGraph) -> dict[int, float]:
    slots = len(g.csr()[0]) - 1
    vids = live_vids(g)
    n = len(vids)
    rows = [neighbors(g, v) for v in range(slots)]
    safe = [float(len(r)) if r else 1.0 for r in rows]
    p = [1.0 / n if v in vids else 0.0 for v in range(slots)]
    for _ in range(PAGERANK_ITERATIONS):
        mass = float(np.sum([p[v] for v in vids if not rows[v]]))
        p_new = [0.0] * slots
        for v in vids:
            spread = 0.0
            for u in rows[v]:
                spread += p[u] / safe[u]
            p_new[v] = (1.0 - PAGERANK_DAMPING) / n + PAGERANK_DAMPING * (
                spread + mass / n
            )
        total = float(np.sum(p_new))
        p = [x / total for x in p_new]
    return {v: p[v] for v in vids}
