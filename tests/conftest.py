"""Shared builders for small, fully controlled networks.

The workhorse is `shared_link_net`: n source devices feeding bridge b0,
which forwards over one cable to bridge b1 and on to n sink devices. Every
route a{i} -> z{j} crosses the directed link (b0, b1), so conflicts between
streams can be dialed in exactly by choosing sizes and phases.
"""

import pytest

from tsnplan.conflict_graph import Configuration
from tsnplan.model import BRIDGE, END_DEVICE, Link, Network, Node, Stream
from tsnplan.routing import Route
from tsnplan.timing import link_occupancy


def shared_link_net(n_pairs: int = 4, rate: int = 1000, prop: int = 1,
                    proc: int = 0) -> Network:
    nodes = [Node("b0", BRIDGE, proc), Node("b1", BRIDGE, proc)]
    links = [Link("b0", "b1", rate, prop), Link("b1", "b0", rate, prop)]
    for i in range(n_pairs):
        nodes += [Node(f"a{i}", END_DEVICE), Node(f"z{i}", END_DEVICE)]
        links += [
            Link(f"a{i}", "b0", rate, prop), Link("b0", f"a{i}", rate, prop),
            Link("b1", f"z{i}", rate, prop), Link(f"z{i}", "b1", rate, prop),
        ]
    return Network(nodes, links)


def through_route(net: Network, i: int, j: int | None = None) -> Route:
    """The a{i} -> b0 -> b1 -> z{j} route of `shared_link_net`."""
    j = i if j is None else j
    return Route((
        net.link(f"a{i}", "b0"), net.link("b0", "b1"), net.link("b1", f"z{j}"),
    ))


def chain_net(n_bridges: int = 2, rate: int = 1000, prop: int = 1,
              proc: int = 4) -> Network:
    """dA - b0 - b1 - ... - b{n-1} - dZ line."""
    nodes = [Node("dA", END_DEVICE), Node("dZ", END_DEVICE)]
    nodes += [Node(f"b{i}", BRIDGE, proc) for i in range(n_bridges)]
    pairs = [("dA", "b0"), (f"b{n_bridges - 1}", "dZ")]
    pairs += [(f"b{i}", f"b{i + 1}") for i in range(n_bridges - 1)]
    links = []
    for a, b in pairs:
        links += [Link(a, b, rate, prop), Link(b, a, rate, prop)]
    return Network(nodes, links)


def chain_route(net: Network, n_bridges: int = 2) -> Route:
    hops = ["dA"] + [f"b{i}" for i in range(n_bridges)] + ["dZ"]
    return Route(tuple(net.link(a, b) for a, b in zip(hops, hops[1:])))


def mkstream(sid: str, period: int = 100, size: int = 500, src: str = "a0",
             dst: str = "z0") -> Stream:
    return Stream(id=sid, src=src, dst=dst, period=period, size=size)


@pytest.fixture
def shared_net():
    return shared_link_net()


def max_phase(net: Network, stream: Stream, route: Route) -> int:
    """Largest phase meeting the deadline; negative means the route is
    infeasible at any phase."""
    return stream.period - link_occupancy(net, stream, route, 0).arrival


def build_config(net: Network, stream: Stream, route_index: int, route: Route,
                 phase: int) -> Configuration:
    """The configuration `expand` would add for (stream, route, phase)."""
    base = link_occupancy(net, stream, route, 0)
    return Configuration(stream, route_index, route, phase, base)


def live_vids(g) -> list[int]:
    return sorted(v for c in g.colors() for v in g.vids_of(c))


def neighbors(g, vid: int) -> list[int]:
    indptr, indices = g.csr()
    return indices[indptr[vid] : indptr[vid + 1]].tolist()
