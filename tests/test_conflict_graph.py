import itertools
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsnplan import conflict_graph
from tsnplan.conflict_graph import (
    PAGERANK_DAMPING,
    PAGERANK_ITERATIONS,
    Configuration,
    ConflictGraph,
    DuplicateConfiguration,
)
from tsnplan.expansion import STRATEGIES, ExpansionParams, expand, stream_sums
from tsnplan.harness import ExperimentConfig, gen_grid, gen_streams, gen_waxman, run_experiment
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
from insertion_oracle import linear_scan_csr
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


def degrees(g: ConflictGraph) -> np.ndarray:
    return np.diff(g.csr()[0])


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


def test_start_beyond_the_key_bits_is_refused(shared_net):
    """The store key holds a start in 32 bits; a larger one raises before
    the join changes anything, and the vertex stays queued."""
    g = ConflictGraph()
    g.add_configuration(cfg(shared_net, "s0", 0, 0))
    g.add_configuration(cfg(shared_net, "s1", 1, 1 << 32))
    for _ in range(2):
        with pytest.raises(OverflowError):
            g.join_queued()


def test_class_count_at_the_key_bound(shared_net, monkeypatch):
    """A join may number exactly `_MAX_CLASSES` (link, period) classes; one
    more raises before the join changes anything."""
    configs = [cfg(shared_net, "s0", 0, 0), cfg(shared_net, "s1", 1, 0, period=200)]
    g = ConflictGraph()
    for c in configs:
        g.add_configuration(c)
    assert g.edge_count == 1
    classes = len(g._link_code) * len(g._periods)
    monkeypatch.setattr(conflict_graph, "_MAX_CLASSES", classes - 1)
    g = ConflictGraph()
    for c in configs:
        g.add_configuration(c)
    with pytest.raises(OverflowError):
        g.join_queued()
    monkeypatch.setattr(conflict_graph, "_MAX_CLASSES", classes)
    assert g.edge_count == 1


def test_window_search_in_the_highest_class():
    """The highest class number a join allows still finds its windows. Two
    intervals that end past the 32 start bits clip the window's upper key
    to the class's base plus 2**32, which must stay below 2**63."""
    cls = conflict_graph._MAX_CLASSES - 1
    start = np.array([conflict_graph._LOW - 8, conflict_graph._LOW - 3])
    store = {
        "key": cls << 32 | start, "start": start, "end": start + 10,
        "vc": np.arange(2) << 32 | np.arange(2),
    }
    classes = conflict_graph._Classes(store, np.ones(2, dtype=bool), np.array([1 << 33]))
    assert classes.conflicts(np.arange(2), store).tolist() == [1 << 32 | 0]


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
    assert g.remove_streams(["s0"]) == 2
    assert g.vertex_count == 0 and g.edge_count == 0 and g.colors() == set()


def test_remove_absent_color(shared_net):
    assert ConflictGraph().remove_streams(["ghost"]) == 0


def test_remove_one_corner_of_triangle(shared_net):
    g = ConflictGraph()
    for i in range(3):
        g.add_configuration(cfg(shared_net, f"s{i}", i, i))
    assert g.remove_streams(["s1"]) == 1
    assert g.vertex_count == 2 and g.edge_count == 1
    assert edge_keys(g) == edge_keys(fresh_copy(g))


def test_avg_degree_isolated(shared_net):
    g = ConflictGraph()
    g.add_configuration(cfg(shared_net, "s0", 0, 0))
    g.add_configuration(cfg(shared_net, "s1", 1, 50))
    # degree sum and vertex count per stream; a stream without vertices reads 0
    assert stream_sums(g, degrees(g), ["s0", "ghost"]) == ([0, 0], [1, 0])


def test_avg_degree_mixed():
    # X (size 1500) vertex at phase 0 overlaps A, B, C on the shared link;
    # its phase-9 sibling overlaps only C -> degree sum 3 + 1 over 2 vertices
    net = shared_link_net(n_pairs=4)
    g = ConflictGraph()
    g.add_configuration(cfg(net, "x", 0, 0, size=1500))
    g.add_configuration(cfg(net, "x", 0, 9, size=1500))
    for sid, i, phi in (("a", 1, 10), ("b", 2, 13), ("c", 3, 16)):
        g.add_configuration(cfg(net, sid, i, phi))
    assert stream_sums(g, degrees(g), ["x"]) == ([4], [2])


def test_avg_degree_star_center():
    net = shared_link_net(n_pairs=7)
    g = ConflictGraph()
    center = g.add_configuration(cfg(net, "hub", 0, 0, size=1500))
    for j in range(6):  # 1-tick frames inside the hub's 12-tick window
        g.add_configuration(cfg(net, f"leaf{j}", j + 1, 12 + j, size=125))
    assert stream_sums(g, degrees(g), ["hub"]) == ([6], [1])
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
    assert pr.sum() == pytest.approx(1.0)


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
    assert pr.sum() == pytest.approx(1.0)


def test_stream_rank_triangle(shared_net):
    g = ConflictGraph()
    for i in range(3):
        g.add_configuration(cfg(shared_net, f"s{i}", i, i))
    ranks, counts = stream_sums(g, g.page_rank(), ["s0", "s1", "s2"])
    assert ranks == pytest.approx([1 / 3] * 3) and counts == [1, 1, 1]


def test_stream_rank_sole_owner(shared_net):
    g = ConflictGraph()
    for phi in (0, 20, 40):
        g.add_configuration(cfg(shared_net, "s0", 0, phi))
    ranks, counts = stream_sums(g, g.page_rank(), ["s0", "ghost"])
    assert ranks == pytest.approx([1.0, 0.0]) and counts == [3, 0]


def test_stream_rank_symmetric_four_cycle(shared_net):
    # two colors, two vertices each, every cross-color pair adjacent: the
    # conflict graph is a 4-cycle and each color holds half the mass
    g = ConflictGraph()
    g.add_configuration(cfg(shared_net, "x", 0, 0))
    g.add_configuration(cfg(shared_net, "x", 0, 2))
    g.add_configuration(cfg(shared_net, "y", 1, 1))
    g.add_configuration(cfg(shared_net, "y", 1, 3))
    assert g.edge_count == 4
    assert stream_sums(g, g.page_rank(), ["x", "y"])[0] == pytest.approx([0.5, 0.5])


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


def build_scenario_graph(net, specs, steps, read_each: bool, check=None) -> ConflictGraph:
    """Replay the scenario's insertions, reads and removals; with
    `read_each`, also read the edges after every insertion, and with
    `check`, call it on the graph after each step's insertion and action.
    A removed color gets no more configurations."""
    g = ConflictGraph()
    removed, added = set(), set()
    for (c, phi), after in steps:
        i, j, period, size, _ = specs[c]
        s = mkstream(f"s{c}", period=period, size=size, src=f"a{i}", dst=f"z{j}")
        route = through_route(net, i, j)
        phi %= max_phase(net, s, route) + 1
        if c not in removed and (c, phi) not in added:
            added.add((c, phi))
            g.add_configuration(build_config(net, s, 0, route, phi))
            if read_each:
                g.csr()
        if after == "read":
            g.csr()
        elif after is not None and g.remove_streams([f"s{after}"]):
            removed.add(after)
        if check:
            check(g)
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

    # the CSR kept across the updates is the oracle's after every step; a
    # step's insertion is still queued when its removal comes, so removals
    # meet joined and queued vertices of one color
    build_scenario_graph(net, specs, steps, read_each=False, check=assert_csr_as_oracle)

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
        assert np.array_equal(g.page_rank(), reference_page_rank(*g.csr()))
    assert_stream_sums_match_scans(g)


@pytest.mark.parametrize("periods", [HARMONIC, NON_HARMONIC], ids=["harmonic", "non-harmonic"])
@pytest.mark.parametrize("topology", ["waxman16", "grid3x3"])
@pytest.mark.parametrize("seed", range(len(STRATEGIES)))
def test_join_matches_linear_scan_oracle(topology, periods, seed):
    """The configurations one expansion adds give the same CSR and
    bit-identical page-rank whether they are joined by the indexed pass or
    by the oracle's per-vertex linear scan. Each seed uses another budget
    strategy; the two-step ones read the edges halfway through. The graph's
    streams hold up to 20 vertices each, enough for the order in which
    stream_sums adds a stream's page-rank to show in the last bits."""
    net = gen_waxman(16) if topology == "waxman16" else gen_grid(3, 3)
    streams = gen_streams(net, 40, SIZES, periods, seed=seed)
    routes = {s.id: candidate_routes(net, s.src, s.dst, 2) for s in streams}
    params = ExpansionParams(cps=20, strategy=STRATEGIES[seed], rng_seed=seed)
    g = ConflictGraph()
    expand(g, StreamBatch(0, add=streams), params, net, routes, streams, Random(seed))
    oracle = linear_scan_csr(g)
    for a, b in zip(g.csr(), oracle):
        assert np.array_equal(a, b)
    assert g.edge_count > 0
    assert np.array_equal(g.page_rank(), reference_page_rank(*oracle))
    assert_stream_sums_match_scans(g)


@pytest.mark.parametrize("join_chunk", [None, 7], ids=["default-chunk", "chunk-7"])
@pytest.mark.parametrize(
    "periods, strategy",
    [(HARMONIC, "page-rank"), (NON_HARMONIC, "avg-degree")],
    ids=["harmonic", "non-harmonic"],
)
def test_join_matches_linear_scan_oracle_on_updates(monkeypatch, periods, strategy, join_chunk):
    """Through a dynamic scenario on a 3x3 grid, with deletions and
    rejections, every join leaves the CSR the oracle builds and a store
    sorted by (link, period, start). Updates merge queued rows into a
    non-empty store, and the two-step strategy joins twice per batch, so
    the second join meets queued vertices of streams that already have
    joined ones. With 7 rows per chunk one join spans many chunks, and the
    pairs a row finds from one side only cross the chunk borders."""
    if join_chunk:
        monkeypatch.setattr(conflict_graph, "JOIN_CHUNK", join_chunk)
    join = ConflictGraph.join_queued
    checking = []  # csr() joins again, with nothing left to join

    def checked_join(g):
        join(g)
        if checking:
            return
        checking.append(g)
        assert_joined_as_oracle(g)
        checking.pop()

    monkeypatch.setattr(ConflictGraph, "join_queued", checked_join)
    scenario = ExperimentConfig(
        topology={"kind": "grid", "rows": 3, "cols": 3}, periods=periods,
        sizes=[1000, 1500], initial_streams=60, iterations=6, add_per_iteration=8,
        del_per_iteration=5, cps=3, strategy=strategy, seed=3,
    )
    metrics, planner = run_experiment(scenario)
    assert sum(m.rejected for m in metrics[1:]) > 0
    assert_joined_as_oracle(planner.graph)


def test_overflowing_join_leaves_the_graph_usable(shared_net):
    """A join that raises leaves the CSR as it was; removing the stream
    that made it raise leaves the graph the oracle builds."""
    g = ConflictGraph()
    for n in range(4):
        for phase in (0, 40):
            g.add_configuration(cfg(shared_net, f"s{n}", n, phase + n))
    assert g.edge_count > 0
    before = [a.copy() for a in g.csr()]
    g.add_configuration(cfg(shared_net, "late", 0, 1 << 32))
    with pytest.raises(OverflowError):
        g.join_queued()
    for a, b in zip((g._indptr, g._indices), before):
        assert np.array_equal(a, b)
    assert g.remove_streams(["late"]) == 1
    assert_csr_as_oracle(g)
    assert np.array_equal(g.page_rank(), reference_page_rank(*g.csr()))


def test_join_after_the_periods_change(shared_net):
    """A period new to the graph shifts the ranks that the store keys pack,
    and so does the removal of a period's last stream: the next join keys
    the stored rows anew before it merges the queued ones."""
    g = ConflictGraph()
    n = 0
    for periods in ([500, 500], [250, 1000], [500, 2000]):
        for period in periods:
            for phase in (0, 7, 130):
                g.add_configuration(cfg(shared_net, f"s{n}", n % 4, phase, period=period))
            n += 1
        g.join_queued()
        assert_joined_as_oracle(g)
    g.remove_streams(["s2"])  # the only stream of period 250
    g.add_configuration(cfg(shared_net, "late", 0, 3, period=1000))
    g.join_queued()
    assert_joined_as_oracle(g)
    assert g.edge_count > 0


def assert_csr_as_oracle(g: ConflictGraph) -> None:
    """The CSR equals the linear-scan oracle's, with one row per vertex,
    each strictly ascending, and two arcs per edge."""
    indptr, indices = g.csr()
    for a, b in zip((indptr, indices), linear_scan_csr(g)):
        assert np.array_equal(a, b)
    assert len(indptr) == g.vertex_count + 1
    for a, b in itertools.pairwise(indptr.tolist()):
        assert np.all(np.diff(indices[a:b]) > 0)
    assert g.edge_count * 2 == len(indices)


def assert_joined_as_oracle(g: ConflictGraph) -> None:
    """The CSR is the oracle's, as `assert_csr_as_oracle` checks, and the
    join's interval store is sorted by (link, period, start), with each
    row's key holding its vertex's period and its start."""
    assert_csr_as_oracle(g)
    store = g._store
    link, period = conflict_graph._key_class(store["key"], g._periods)
    order = np.lexsort((store["start"], period, link))
    assert np.array_equal(order, np.arange(len(order)))
    assert np.array_equal(store["key"] & 0xFFFFFFFF, store["start"])
    vids = (store["vc"] >> 32).tolist()
    assert [g.config(v).stream.period for v in vids] == period.tolist()


def assert_stream_sums_match_scans(g: ConflictGraph) -> None:
    """stream_sums gives, bit for bit, what a scan of each stream's vids
    adds up left to right, for every live colour and one absent id; equal
    degree sums and counts give equal exact average degrees."""
    order = [*sorted(g.colors()), "ghost"]
    pr = g.page_rank().tolist()
    ranks, counts = stream_sums(g, g.page_rank(), order)
    degree_sums, _ = stream_sums(g, degrees(g), order)
    for sid, rank, degree_sum, count in zip(order, ranks, degree_sums, counts):
        members = g.vids_of(sid)
        assert count == len(members)
        assert rank == sum(pr[v] for v in members)
        assert degree_sum == sum(len(neighbors(g, v)) for v in members)


def reference_page_rank(indptr, indices) -> np.ndarray:
    n = len(indptr) - 1
    rows = [indices[indptr[v] : indptr[v + 1]].tolist() for v in range(n)]
    safe = [float(len(r)) if r else 1.0 for r in rows]
    p = [1.0 / n] * n
    for _ in range(PAGERANK_ITERATIONS):
        mass = float(np.sum([p[v] for v in range(n) if not rows[v]]))
        p_new = []
        for v in range(n):
            spread = 0.0
            for u in rows[v]:
                spread += p[u] / safe[u]
            p_new.append((1.0 - PAGERANK_DAMPING) / n + PAGERANK_DAMPING * (
                spread + mass / n
            ))
        total = float(np.sum(p_new))
        p = [x / total for x in p_new]
    return np.array(p)
