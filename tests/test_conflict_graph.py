import itertools
from random import Random

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
from tsnplan.expansion import STRATEGIES, ExpansionParams, expand
from tsnplan.harness import gen_grid, gen_streams, gen_waxman
from tsnplan.model import StreamBatch
from tsnplan.routing import candidate_routes
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
from insertion_oracle import LinearScanGraph
from test_acceptance import HARMONIC, NON_HARMONIC, SIZES

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
    """Up to 5 colors x up to 3 configurations with mixed periods and sizes,
    on routes a_i -> z_j that share the middle link and some end links,
    inserted in a drawn order. After each insertion comes one of: nothing
    (None), a read of the edges ("read"), or the removal of a color (its
    index)."""
    colors = draw(st.integers(1, 5))
    specs = []
    for c in range(colors):
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        period = draw(st.sampled_from([25, 50, 60, 97, 100, 150]))
        size = draw(st.sampled_from([125, 500]))
        phases = draw(st.lists(st.integers(0, 150), min_size=1, max_size=3, unique=True))
        specs.append((i, j, period, size, phases))
    order = draw(st.permutations([(c, phi) for c, spec in enumerate(specs) for phi in spec[4]]))
    after = draw(st.lists(
        st.one_of(st.none(), st.just("read"), st.integers(0, colors - 1)),
        min_size=len(order), max_size=len(order),
    ))
    return specs, list(zip(order, after))


def build_scenario_graph(net, specs, steps, read_each: bool) -> ConflictGraph:
    """Replay the scenario's insertions, reads and removals; with
    `read_each`, also read the edges after every insertion. A removed color
    gets no more configurations."""
    g = ConflictGraph()
    removed = set()
    for (c, phi), after in steps:
        i, j, period, size, _ = specs[c]
        s = mkstream(f"s{c}", period=period, size=size, src=f"a{i}", dst=f"z{j}")
        route = through_route(net, i, j)
        phi %= max_phase(net, s, route) + 1
        if c not in removed and g.find_vid(s.id, 0, phi) is None:
            g.add_configuration(build_config(net, s, 0, route, phi))
            if read_each:
                g.csr()
        if after == "read":
            g.csr()
        elif after is not None and g.remove_stream(f"s{after}"):
            removed.add(after)
    return g


@settings(max_examples=100, deadline=None)
@given(graph_scenario())
def test_edges_match_pairwise_predicate_and_rebuild(scenario):
    specs, steps = scenario
    net = shared_link_net(n_pairs=4)
    g = build_scenario_graph(net, specs, steps, read_each=False)

    # when the queued vertices are joined does not change the graph
    eager = build_scenario_graph(net, specs, steps, read_each=True)
    for a, b in zip(g.csr(), eager.csr()):
        assert np.array_equal(a, b)

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


@pytest.mark.parametrize("periods", [HARMONIC, NON_HARMONIC], ids=["harmonic", "non-harmonic"])
@pytest.mark.parametrize("topology", ["waxman16", "grid3x3"])
@pytest.mark.parametrize("seed", range(len(STRATEGIES)))
def test_join_matches_linear_scan_oracle(topology, periods, seed):
    """The configurations one expansion adds give the same CSR and
    bit-identical page-rank whether they are joined by the indexed pass or
    by the oracle's per-vertex linear scan. Each seed uses another budget
    strategy; the two-step ones read the edges halfway through."""
    net = gen_waxman(16) if topology == "waxman16" else gen_grid(3, 3)
    streams = gen_streams(net, 40, SIZES, periods, seed=seed)
    routes = {s.id: candidate_routes(net, s.src, s.dst, 2) for s in streams}
    params = ExpansionParams(cps=20, strategy=STRATEGIES[seed], rng_seed=seed)
    g = ConflictGraph()
    expand(g, StreamBatch(0, add=streams), params, net, routes, streams, Random(seed))
    oracle = LinearScanGraph()
    for v in range(g.slot_count):
        oracle.add_configuration(g.config(v))
    for a, b in zip(g.csr(), oracle.csr()):
        assert np.array_equal(a, b)
    assert g.edge_count > 0
    assert g.page_rank() == oracle.page_rank()


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
