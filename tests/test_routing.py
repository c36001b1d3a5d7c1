import itertools
import json
import tempfile
import weakref
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsnplan import routing, solver
from tsnplan.expansion import ExpansionParams
from tsnplan.harness import (
    ExperimentConfig, build_topology, gen_grid, gen_random, gen_ring, gen_waxman,
)
from tsnplan.model import BRIDGE, END_DEVICE, Link, Network, Node, Stream, StreamBatch
from tsnplan.routing import (
    _FAR,
    PENALTY_WEIGHT,
    Route,
    Unreachable,
    _index,
    _relax,
    _repair,
    _walk,
    candidate_routes,
)

from conftest import chain_net, chain_route
from routing_oracle import _dijkstra, oracle_candidate_routes, reference_relax


def test_ring_tie_break_is_lexicographic():
    net = gen_ring(4)
    # both arcs d0-b0-b1-b2-d2 and d0-b0-b3-b2-d2 have 4 hops
    assert candidate_routes(net, "d0", "d2", 1)[0].nodes == ("d0", "b0", "b1", "b2", "d2")


def test_adjacent_bridges_unique_path():
    net = gen_ring(4)
    assert candidate_routes(net, "d0", "d1", 1)[0].nodes == ("d0", "b0", "b1", "d1")


def test_unreachable_raises():
    net = Network(
        [Node("a", END_DEVICE), Node("b", END_DEVICE), Node("b0", BRIDGE)],
        [Link("a", "b0", 1000), Link("b0", "a", 1000)],
    )
    with pytest.raises(Unreachable):
        candidate_routes(net, "a", "b", 1)


def test_end_devices_are_never_interior():
    # shortcut through device z0 is shorter but illegal; expect the longer
    # bridges-only detour via b2, b3
    nodes = [
        Node("a", END_DEVICE), Node("z0", END_DEVICE), Node("z1", END_DEVICE),
        Node("b0", BRIDGE), Node("b1", BRIDGE), Node("b2", BRIDGE),
        Node("b3", BRIDGE),
    ]
    pairs = [
        ("a", "b0"), ("b0", "z0"), ("z0", "b1"), ("b1", "z1"),
        ("b0", "b2"), ("b2", "b3"), ("b3", "b1"),
    ]
    links = [l for a, b in pairs for l in (Link(a, b, 1000), Link(b, a, 1000))]
    net = Network(nodes, links)
    assert candidate_routes(net, "a", "z1", 1)[0].nodes == ("a", "b0", "b2", "b3", "b1", "z1")


def multi_homed_net() -> Network:
    """The net of test_end_devices_are_never_interior: device z0 hangs off
    both b0 and b1, a shortcut no route may take."""
    nodes = [
        Node("a", END_DEVICE), Node("z0", END_DEVICE), Node("z1", END_DEVICE),
        Node("b0", BRIDGE), Node("b1", BRIDGE), Node("b2", BRIDGE),
        Node("b3", BRIDGE),
    ]
    pairs = [
        ("a", "b0"), ("b0", "z0"), ("z0", "b1"), ("b1", "z1"),
        ("b0", "b2"), ("b2", "b3"), ("b3", "b1"),
    ]
    links = [l for a, b in pairs for l in (Link(a, b, 1000), Link(b, a, 1000))]
    return Network(nodes, links)


def one_way_ring_net() -> Network:
    """A 5-bridge ring whose cables b1 -> b2 and b4 -> b3 run one way only,
    so b2 and b3 cannot reach b4, b0 or b1, plus a direct d0 -> d2 device
    link, one way too."""
    bridges = [f"b{i}" for i in range(5)]
    devices = [f"d{i}" for i in range(5)]
    nodes = [Node(b, BRIDGE) for b in bridges] + [Node(d, END_DEVICE) for d in devices]
    pairs = [("b0", "b1"), ("b2", "b3"), ("b4", "b0")] + list(zip(devices, bridges))
    links = [l for a, b in pairs for l in (Link(a, b, 1000), Link(b, a, 1000))]
    links += [Link(a, b, 1000) for a, b in (("b1", "b2"), ("b4", "b3"), ("d0", "d2"))]
    return Network(nodes, links)


def device_shortcut_net() -> Network:
    """One-way links d0 -> d2, d0 -> b, d0 -> c, c -> b and b -> d2: every
    bridge route into d2 ends with b -> d2, but the direct device link is a
    second way in."""
    nodes = [Node(x, END_DEVICE) for x in ("d0", "d2")] + [Node(x, BRIDGE) for x in "bc"]
    pairs = [("d0", "d2"), ("d0", "b"), ("d0", "c"), ("c", "b"), ("b", "d2")]
    return Network(nodes, [Link(u, v, 1000) for u, v in pairs])


def dual_homed_file_net() -> Network:
    """A `kind: file` topology of 8 meshed bridges whose 6 devices each
    hang off two bridges, so every device has two links in and two out."""
    bridges = [f"b{i}" for i in range(8)]
    cables = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
              (0, 4), (2, 6), (1, 7)]
    homes = [(f"d{i}", bridges[i], bridges[(i + 3) % 8]) for i in range(6)]
    pairs = [(bridges[u], bridges[v]) for u, v in cables]
    pairs += [(dev, b) for dev, *two in homes for b in two]
    doc = {
        "nodes": [{"id": b, "kind": BRIDGE} for b in bridges]
        + [{"id": dev, "kind": END_DEVICE} for dev, *_ in homes],
        "links": [{"from": a, "to": b, "rate": 1000} for u, v in pairs
                  for a, b in ((u, v), (v, u))],
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/net.json"
        with open(path, "w") as f:
            json.dump(doc, f)
        return build_topology(ExperimentConfig(topology={"kind": "file", "path": path}))


def cut_link_net() -> Network:
    """Two bridge rings b0-b3 and b4-b7, one device each, joined only by the
    cable b3 - b4: every route between the rings crosses it."""
    ring = [(0, 1), (1, 2), (2, 3), (3, 0)]
    cables = ring + [(u + 4, v + 4) for u, v in ring] + [(3, 4)]
    nodes = [Node(f"b{i}", BRIDGE) for i in range(8)] + [Node(f"d{i}", END_DEVICE) for i in range(8)]
    pairs = [(f"b{u}", f"b{v}") for u, v in cables] + [(f"d{i}", f"b{i}") for i in range(8)]
    return Network(nodes, [l for u, v in pairs for l in (Link(u, v, 1000), Link(v, u, 1000))])


ORACLE_NETS = {
    "ring12": lambda: gen_ring(12),  # "b10" < "b2" decides ties
    "grid3x4": lambda: gen_grid(3, 4),
    "multi-homed": multi_homed_net,
    "one-way-ring5": one_way_ring_net,
    "device-shortcut": device_shortcut_net,
    "dual-homed-file": dual_homed_file_net,
    "cut-link": cut_link_net,
    **{f"waxman40-s{s}": (lambda s=s: gen_waxman(40, seed=s)) for s in range(3)},
    **{f"random30-s{s}": (lambda s=s: gen_random(30, 0.15, s)) for s in range(3)},
    "waxman128-s0": lambda: gen_waxman(128, seed=0),  # the benchmark's topology
}
# nets whose endpoints include bridges, and nets sampled below 300 pairs
ALL_NODE_ENDPOINTS = {"one-way-ring5"}
PAIR_SAMPLE = {"waxman128-s0": 60}


@pytest.mark.parametrize("name", list(ORACLE_NETS))
def test_candidate_routes_match_path_heap_oracle(name):
    net = ORACLE_NETS[name]()
    ends = sorted(net.nodes) if name in ALL_NODE_ENDPOINTS else net.end_devices()
    pairs = list(itertools.permutations(ends, 2))
    sample = PAIR_SAMPLE.get(name, 300)
    if len(pairs) > sample:
        pairs = Random(name).sample(pairs, sample)
    got = {}
    for src, dst in pairs:
        for k in (1, 2, 3):
            try:
                want = oracle_candidate_routes(net, src, dst, k)
            except Unreachable:
                with pytest.raises(Unreachable):
                    candidate_routes(net, src, dst, k)
                continue
            got[src, dst, k] = [r.links for r in candidate_routes(net, src, dst, k)]
            assert got[src, dst, k] == [r.links for r in want], (src, dst, k)
    # routes depend on the endpoints alone, not on what was routed before
    keys = list(got)
    Random(name).shuffle(keys)
    for src, dst, k in keys:
        assert [r.links for r in candidate_routes(net, src, dst, k)] == got[src, dst, k]


@pytest.mark.parametrize(
    "penalized",
    [[("c", "z")], [("a", "c")], [("a", "c"), ("c", "z"), ("b10", "z")]],
)
def test_search_waits_for_a_long_route_that_ties_a_penalized_shortcut(penalized):
    # a reaches z through c or through b1 ... b10, at equal cost: 11, or 20
    # when every link into z is penalized. The repair must give b1 the
    # distance of the long route, since b1 < c makes that route the smaller
    # one
    chain = [f"b{i}" for i in range(1, 11)]
    nodes = [Node(x, END_DEVICE) for x in ("a", "z")] + [Node(x, BRIDGE) for x in chain + ["c"]]
    pairs = [("a", "c"), ("c", "z"), ("a", "b1"), *zip(chain, chain[1:]), ("b10", "z")]
    net = Network(nodes, [l for u, v in pairs for l in (Link(u, v, 1000), Link(v, u, 1000))])
    ix = _index(net)
    a, z = ix.id["a"], ix.id["z"]
    codes = {ix.id[u] * len(ix.names) + ix.id[v] for u, v in penalized}
    path = _walk(ix, a, z, _repair(ix, _relax(ix, [z])[0], codes), codes)
    want = _dijkstra(net, "a", "z", dict.fromkeys(penalized, PENALTY_WEIGHT))
    assert tuple(ix.names[x] for x in path) == want.nodes == ("a", *chain, "z")


def test_device_link_into_the_destination_keeps_the_bridge_link_penalized():
    # b -> d2 is the only bridge link into d2, but not its only link in
    net = device_shortcut_net()
    assert [r.nodes for r in candidate_routes(net, "d0", "d2", 3)] == [
        ("d0", "d2"),
        ("d0", "b", "d2"),
    ]


def test_repair_raises_every_distance_behind_a_penalized_cut_link():
    net = cut_link_net()
    ix = _index(net)
    n, d6 = len(ix.names), ix.id["d6"]
    rev = _relax(ix, [d6])[0]
    unit = rev[0]
    got = _repair(ix, rev, {ix.id["b3"] * n + ix.id["b4"]})
    behind = {ix.id[f"b{i}"] for i in range(4)}
    assert [got[x] - unit[x] for x in sorted(behind)] == [PENALTY_WEIGHT - 1] * 4
    assert all(got[x] == unit[x] for x in range(n) if x not in behind)
    # the second route pays for b3 -> b4 and avoids the first's other links
    assert [r.nodes for r in candidate_routes(net, "d0", "d6", 2)] == [
        ("d0", "b0", "b3", "b4", "b5", "b6", "d6"),
        ("d0", "b0", "b1", "b2", "b3", "b4", "b7", "b6", "d6"),
    ]


def test_walk_without_a_tight_out_link_raises():
    net = gen_ring(4)
    ix = _index(net)
    d0, b0, d2 = ix.id["d0"], ix.id["b0"], ix.id["d2"]
    dist = [_FAR] * len(ix.names)
    dist[d2], dist[b0] = 0, 5  # b0 claims a distance none of its successors backs
    with pytest.raises(RuntimeError, match="'b0'.*'d2'"):
        _walk(ix, d0, d2, dist, set())


def test_one_way_ring_routes():
    net = one_way_ring_net()
    assert candidate_routes(net, "d0", "d2", 1)[0].nodes == ("d0", "d2")
    assert [r.nodes for r in candidate_routes(net, "d0", "d2", 2)] == [
        ("d0", "d2"),
        ("d0", "b0", "b1", "b2", "d2"),
    ]
    assert candidate_routes(net, "b0", "b3", 1)[0].nodes == ("b0", "b4", "b3")
    for src, dst in (("d2", "d0"), ("b3", "b4"), ("d3", "b1")):
        with pytest.raises(Unreachable):
            candidate_routes(net, src, dst, 2)


def test_unknown_or_disconnected_endpoint_is_unreachable():
    net = gen_ring(4)
    for src, dst in (("nowhere", "d1"), ("d0", "nowhere")):
        with pytest.raises(Unreachable):
            candidate_routes(net, src, dst, 2)
        with pytest.raises(Unreachable):
            candidate_routes(net, src, dst, 1)
    net = Network(
        [Node("a", END_DEVICE), Node("b", END_DEVICE), Node("b0", BRIDGE)],
        [Link("a", "b0", 1000), Link("b0", "a", 1000)],
    )
    for src, dst in (("a", "b"), ("b", "a")):
        with pytest.raises(Unreachable):
            candidate_routes(net, src, dst, 2)


def test_candidate_routes_ring_both_arcs():
    net = gen_ring(4)
    routes = candidate_routes(net, "d0", "d2", 2)
    assert [r.nodes for r in routes] == [
        ("d0", "b0", "b1", "b2", "d2"),
        ("d0", "b0", "b3", "b2", "d2"),
    ]
    # bridge-to-bridge segments are link-disjoint; only device stubs repeat
    mid0 = {l.key for l in routes[0].links[1:-1]}
    mid1 = {l.key for l in routes[1].links[1:-1]}
    assert not (mid0 & mid1)


def test_candidate_routes_tree_single_route():
    net = chain_net(3)
    routes = candidate_routes(net, "dA", "dZ", 2)
    assert len(routes) == 1
    assert routes[0].links == chain_route(net, 3).links


def test_candidate_routes_k1_is_shortest_path():
    net = gen_ring(5)
    assert candidate_routes(net, "d0", "d2", 1)[0].links == _dijkstra(
        net, "d0", "d2", None
    ).links
    with pytest.raises(ValueError):
        candidate_routes(net, "d0", "d2", 0)


def test_route_check():
    net = chain_net(2)
    chain_route(net, 2).check(net)
    with pytest.raises(ValueError):
        Route(()).check(net)
    with pytest.raises(ValueError):  # not contiguous
        Route((net.link("dA", "b0"), net.link("b1", "dZ"))).check(net)
    with pytest.raises(ValueError):  # repeats a node
        Route((net.link("dA", "b0"), net.link("b0", "dA"))).check(net)


def test_route_properties():
    net = chain_net(2)
    r = chain_route(net, 2)
    assert r.hop_count == 3
    assert r.nodes == ("dA", "b0", "b1", "dZ")
    assert tuple(l.key for l in r.links) == (("dA", "b0"), ("b0", "b1"), ("b1", "dZ"))


def routes_of_one_batch(monkeypatch, net, pairs, k):
    """Plan one batch of streams over `pairs` with k candidates each, and
    return the candidate routes that `Planner.iterate` handed to expansion,
    with the iteration's metrics."""
    handed = {}
    real_expand = solver.expand

    def expand(g, batch, params, net, routes, *rest):
        handed.update(routes)
        return real_expand(g, batch, params, net, routes, *rest)

    monkeypatch.setattr(solver, "expand", expand)
    planner = solver.Planner(net, ExpansionParams(cps=2, alpha=1), k_routes=k)
    streams = [Stream(f"s{i}", src, dst, 1000, 125) for i, (src, dst) in enumerate(pairs)]
    metrics = planner.iterate(StreamBatch(0, streams))
    return {s.id: handed.get(s.id) for s in streams}, metrics


@pytest.mark.parametrize("name", ["waxman40-s0", "one-way-ring5"])
def test_a_batch_of_streams_sharing_destinations_matches_the_oracle(monkeypatch, name):
    """Most streams of the batch share one destination, so most first
    candidates walk one reverse distance; each stream's candidates are the
    oracle's, and a stream without a route is rejected alone."""
    net = ORACLE_NETS[name]()
    ends = sorted(net.nodes) if name in ALL_NODE_ENDPOINTS else net.end_devices()
    pairs = [(src, ends[2]) for src in ends if src != ends[2]]
    pairs += [(src, ends[-1]) for src in ends[:4]] + [(ends[-1], ends[0])]
    routes, metrics = routes_of_one_batch(monkeypatch, net, pairs, 3)
    unroutable = 0
    for (src, dst), got in zip(pairs, routes.values()):
        try:
            want = oracle_candidate_routes(net, src, dst, 3)
        except Unreachable:
            assert got is None, (src, dst)
            unroutable += 1
            continue
        assert [r.links for r in got] == [r.links for r in want], (src, dst)
    assert metrics.rejected >= unroutable
    assert unroutable > 0 if name == "one-way-ring5" else unroutable == 0


def assert_unknown_destination_rejects_only_its_stream(monkeypatch, at):
    """The batch lists the unknown destination with the others; the search
    that relaxes them skips it."""
    net = gen_ring(6)
    pairs = [("d0", "d3"), ("d2", "d3"), ("d4", "d0")]
    pairs.insert(at, ("d1", "nowhere"))
    routes, metrics = routes_of_one_batch(monkeypatch, net, pairs, 2)
    assert routes[f"s{at}"] is None and metrics.rejected == 1
    for sid, (src, dst) in zip(routes, pairs):
        if sid != f"s{at}":
            want = oracle_candidate_routes(net, src, dst, 2)
            assert [r.links for r in routes[sid]] == [r.links for r in want]


def test_an_unknown_destination_rejects_only_its_stream(monkeypatch):
    assert_unknown_destination_rejects_only_its_stream(monkeypatch, 1)


@pytest.mark.parametrize("at", [0, 3])
def test_an_unknown_destination_first_or_last_rejects_only_its_stream(monkeypatch, at):
    assert_unknown_destination_rejects_only_its_stream(monkeypatch, at)


def test_no_reverse_distance_outlives_its_batch(monkeypatch):
    """Each batch lists its own destinations and no distances, relaxes them
    at its first search, and has freed every distance before expansion
    starts."""
    net = gen_waxman(40, seed=1)
    ends = net.end_devices()
    alive, listed = [], []
    real_candidate_routes, real_expand = solver.candidate_routes, solver.expand
    real_relax = routing._relax

    class Dist(list):  # a list that a weak reference can follow
        pass

    def candidate_routes(net, src, dst, k, reverse):
        listed.append({x: r is None for x, r in reverse.items()})
        return real_candidate_routes(net, src, dst, k, reverse=reverse)

    def relax(ix, dests):
        rev = [(Dist(dist), count) for dist, count in real_relax(ix, dests)]
        alive.extend(weakref.ref(dist) for dist, _ in rev)
        return rev

    def expand(*args):
        assert all(ref() is None for ref in alive)
        return real_expand(*args)

    monkeypatch.setattr(solver, "candidate_routes", candidate_routes)
    monkeypatch.setattr(routing, "_relax", relax)
    monkeypatch.setattr(solver, "expand", expand)
    planner = solver.Planner(net, ExpansionParams(cps=2, alpha=1))
    admitted = []
    for i in range(3):
        add = [Stream(f"s{i}-{j}", src, ends[j % 3], 1000, 125)
               for j, src in enumerate(ends[3:12])]
        listed.clear()
        alive.clear()
        planner.iterate(StreamBatch(i, add, admitted[:2]))
        admitted = list(planner.state.admitted)
        # the batch's three destinations, none relaxed before its first search
        # and all three after it
        assert listed == [dict.fromkeys(ends[:3], True)] + [
            dict.fromkeys(ends[:3], False)
        ] * (len(add) - 1)
        assert len(alive) == 3 and all(ref() is None for ref in alive)


@pytest.mark.parametrize("k", [2, 3])
def test_each_destination_is_relaxed_once_per_batch(monkeypatch, k):
    net = ORACLE_NETS["waxman40-s0"]()
    ends = net.end_devices()
    pairs = [(src, ends[j % 3]) for j, src in enumerate(ends[3:15])]
    pairs += [(ends[0], ends[1]), (ends[1], ends[0])]
    relaxed = Counter()
    real_relax = routing._relax

    def relax(ix, dests):
        relaxed.update(ix.names[d] for d in dests)
        return real_relax(ix, dests)

    monkeypatch.setattr(routing, "_relax", relax)
    routes, _ = routes_of_one_batch(monkeypatch, net, pairs, k)
    assert all(len(r) == k for r in routes.values())  # every stream searched again
    assert relaxed == Counter({dst: 1 for _, dst in pairs})


def assert_batch_matches_reference(net):
    """`_relax` from every node at once, bridges too, equals the reference
    relaxation of each node alone, distances and tight counts."""
    ix = _index(net)
    dests = list(range(len(ix.names)))
    got = _relax(ix, dests)
    assert len(got) == len(dests)
    for d, (dist, count) in zip(dests, got):
        want = reference_relax(ix, d)
        assert dist == want[0].tolist(), ix.names[d]
        assert count == want[1].tolist(), ix.names[d]
    # plain ints, which the walks and repairs add and compare fastest
    assert {type(x) for dist, count in got for x in dist + count} <= {int}
    return ix, got


@pytest.mark.parametrize("name", list(ORACLE_NETS))
def test_batched_relax_matches_the_reference(name):
    ix, got = assert_batch_matches_reference(ORACLE_NETS[name]())
    # an entry of a batch is that destination relaxed alone, or in any order
    sample = Random(name).sample(range(len(ix.names)), min(8, len(ix.names)))
    for d in sample:
        assert _relax(ix, [d]) == [got[d]]
    assert _relax(ix, sample) == [got[d] for d in sample]
    assert _relax(ix, []) == []


@settings(max_examples=30, deadline=None)
@given(
    waxman=st.booleans(),
    size=st.integers(2, 30),
    cols=st.integers(2, 6),
    seed=st.integers(0, 2**16),
    drop=st.sampled_from([0.0, 0.1, 0.3]),
)
def test_batched_relax_matches_the_reference_on_drawn_nets(waxman, size, cols, seed, drop):
    """Waxman and grid nets, with a share of their directed links dropped so
    that some bridges cannot reach some destinations."""
    net = gen_waxman(size, seed=seed) if waxman else gen_grid(2 + size % 5, cols)
    rng = Random(seed)
    links = [l for l in net.links.values() if rng.random() >= drop]
    assert_batch_matches_reference(Network(net.nodes.values(), links))


def test_relax_leaves_bridges_that_cannot_reach_the_destination_far():
    net = one_way_ring_net()  # b2 and b3 cannot reach b4, b0 or b1
    ix, got = assert_batch_matches_reference(net)
    dist, count = got[ix.id["d0"]]
    for x in ("b2", "b3", "d2", "d3"):
        assert (dist[ix.id[x]], count[ix.id[x]]) == (_FAR, 0), x
    reach = [ix.id[x] for x in ("d0", "b0", "b1", "b4")]
    assert [dist[x] for x in reach] == [0, 1, 2, 2]
    assert [count[x] for x in reach] == [0, 1, 1, 1]


def test_a_bridge_destination_keeps_distance_0_and_no_tight_out_link():
    net = gen_ring(4)
    ix, got = assert_batch_matches_reference(net)
    dist, count = got[ix.id["b1"]]
    bridges = [ix.id[f"b{i}"] for i in range(4)]
    assert [dist[x] for x in bridges] == [1, 0, 1, 2]
    assert [count[x] for x in bridges] == [1, 0, 1, 2]
    # no end device is ever interior, so none gets a distance
    assert all(dist[ix.id[f"d{i}"]] == _FAR for i in range(4))
