"""Candidate route computation: short, diverse routes per stream.

The first candidate is the minimum-hop route. Further candidates come from
searching again in a weighted view where links already used by selected
routes cost 10 instead of 1, which steers later candidates away from earlier
ones without forbidding overlap outright.

Every search returns the min-cost route whose node sequence is
lexicographically smallest; interior nodes are bridges only. It runs on
integer node ids numbered in sorted node-name order, so comparing id
sequences compares name sequences, and works in two passes:

1. Reverse distance: the cost from each node to the destination, found by
   searching backwards over incoming links from the destination. Only the
   destination and bridges are expanded, so no other end device is ever
   interior. Without penalties this is a breadth-first search, otherwise a
   Dijkstra over (cost, node id) heap entries. It stops once the source's
   distance is final.
2. Forward walk: from the source, repeatedly take the out-link to the
   smallest node id that is tight, i.e. whose distance plus the link's cost
   equals the current node's distance.

The walk yields the smallest sequence because every suffix of a min-cost
route is a min-cost route from its first node, and with positive link
costs any min-cost route is simple: picking the smallest tight successor
at each step decides the first differing position of any two min-cost
routes in favour of the walk. Nodes the reverse search left unsettled are
at least as far as the source, so they are never tight on the walk.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass

from .model import BRIDGE, Link, Network

PENALTY_WEIGHT = 10

_FAR = 1 << 62  # distance of a node the reverse search has not reached


class Unreachable(Exception):
    pass


@dataclass(frozen=True)
class Route:
    links: tuple[Link, ...]

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.links[0].src,) + tuple(l.dst for l in self.links)

    @property
    def hop_count(self) -> int:
        return len(self.links)

    @property
    def link_keys(self) -> tuple[tuple[str, str], ...]:
        return tuple(l.key for l in self.links)

    def check(self, net: Network) -> None:
        if not self.links:
            raise ValueError("empty route")
        nodes = self.nodes
        if len(set(nodes)) != len(nodes):
            raise ValueError("route repeats a node")
        for a, b in zip(self.links, self.links[1:]):
            if a.dst != b.src:
                raise ValueError("route links are not contiguous")
        for interior in nodes[1:-1]:
            if not net.is_bridge(interior):
                raise ValueError(f"interior node {interior!r} is not a bridge")


class _Index:
    """Integer view of a network's topology.

    Node ids follow sorted node names. `out_dst[out_ptr[u]:out_ptr[u + 1]]`
    are the ends of u's out-links in ascending order and
    `in_src[in_ptr[v]:in_ptr[v + 1]]` the starts of v's in-links. Link u -> v
    is known by its code u * n + v, n the node count. Links to or from
    unknown nodes are left out.
    """

    def __init__(self, net: Network):
        self.names = sorted(net.nodes)
        self.id = {name: i for i, name in enumerate(self.names)}
        self.relay = [net.nodes[name].kind == BRIDGE for name in self.names]
        self.out_ptr = [0]
        self.out_dst: list[int] = []
        incoming: list[list[int]] = [[] for _ in self.names]
        for u, name in enumerate(self.names):
            for link in net.out_links(name):  # sorted by destination name
                v = self.id.get(link.dst)
                if v is not None:
                    self.out_dst.append(v)
                    incoming[v].append(u)
            self.out_ptr.append(len(self.out_dst))
        self.in_ptr = list(itertools.accumulate(map(len, incoming), initial=0))
        self.in_src = [u for srcs in incoming for u in srcs]

    def link_codes(self, path: tuple[int, ...]) -> list[int]:
        n = len(self.names)
        return [u * n + v for u, v in zip(path, path[1:])]


def _index(net: Network) -> _Index:
    if net._route_index is None:
        net._route_index = _Index(net)
    return net._route_index


def _search(ix: _Index, src: str, dst: str, penalized: set[int]) -> tuple[int, ...]:
    """Node ids of the lexicographically smallest min-cost route; links whose
    code is in `penalized` cost PENALTY_WEIGHT, all others 1."""
    s, d = ix.id.get(src), ix.id.get(dst)
    if s is None or d is None:
        raise Unreachable(f"no route from {src!r} to {dst!r}: unknown endpoint")
    relay, in_ptr, in_src = ix.relay, ix.in_ptr, ix.in_src
    n = len(relay)
    dist = [_FAR] * n
    dist[d] = 0
    # besides dst, only bridges and the source get a distance, and the search
    # ends before it would expand the source
    if not penalized:
        frontier = deque((d,))
        while frontier and dist[s] == _FAR:
            v = frontier.popleft()
            nd = dist[v] + 1
            for u in in_src[in_ptr[v] : in_ptr[v + 1]]:
                if dist[u] == _FAR and (relay[u] or u == s):
                    dist[u] = nd
                    frontier.append(u)
    else:
        heap = [(0, d)]
        while heap:
            c, v = heapq.heappop(heap)
            if v == s:
                break
            if c > dist[v]:
                continue
            for u in in_src[in_ptr[v] : in_ptr[v + 1]]:
                if relay[u] or u == s:
                    nc = c + (PENALTY_WEIGHT if (u * n + v) in penalized else 1)
                    if nc < dist[u]:
                        dist[u] = nc
                        heapq.heappush(heap, (nc, u))
    if dist[s] == _FAR:
        raise Unreachable(f"no route from {src!r} to {dst!r}")

    out_ptr, out_dst = ix.out_ptr, ix.out_dst
    path = [s]
    v = s
    while v != d:
        for nxt in out_dst[out_ptr[v] : out_ptr[v + 1]]:
            w = PENALTY_WEIGHT if (v * n + nxt) in penalized else 1
            if dist[nxt] + w == dist[v]:
                path.append(nxt)
                v = nxt
                break
    return tuple(path)


def shortest_path(net: Network, src: str, dst: str) -> Route:
    """Minimum-hop route between two end devices."""
    return candidate_routes(net, src, dst, 1)[0]


def candidate_routes(net: Network, src: str, dst: str, k: int = 2) -> list[Route]:
    """Up to k distinct routes, later ones penalized away from earlier ones."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ix = _index(net)
    found = [_search(ix, src, dst, set())]
    used = set(ix.link_codes(found[0]))
    while len(found) < k:
        nxt = _search(ix, src, dst, used)
        if nxt in found:
            break  # penalty view is now stable, no further distinct route
        found.append(nxt)
        used.update(ix.link_codes(nxt))
    names = ix.names
    return [
        Route(tuple(net.link(names[u], names[v]) for u, v in zip(p, p[1:])))
        for p in found
    ]
