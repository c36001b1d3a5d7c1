"""Candidate route computation: short, diverse routes per stream.

The first candidate is the minimum-hop route. Further candidates come from
searching again in a weighted view where links already used by selected
routes cost 10 instead of 1, which steers later candidates away from earlier
ones without forbidding overlap outright.

Every search returns the min-cost route whose node sequence is
lexicographically smallest; interior nodes are bridges only. It runs on
integer node ids numbered in sorted node-name order, so comparing id
sequences compares name sequences, and works in two steps:

1. Reverse distance: the cost from each node to the destination. One
   vectorised min-plus relaxation over the bridges' out-links lowers each
   bridge's distance to the least link cost plus successor distance. The
   destination stays at 0 and no other end device gets a distance, so none
   is ever interior. The source's distance is the least over its own
   out-links. After r rounds a bridge's distance is its least cost over
   routes of at most r links, and once no distance falls every distance is
   exact. The first candidate's relaxation runs until then: its unit costs
   depend on the destination alone, so one converged distance serves every
   stream of a batch that shares the destination, and the walk's proof
   below holds at every node. A penalised search's costs depend on the
   stream's earlier routes, so it runs per stream and may stop early. A
   longer route than r links costs at least r - 1 + m_d, m_d the least
   cost of a bridge's link into the destination, as every link costs at
   least 1; so every distance of at most r - 1 + m_d is exact. The
   penalised rounds also stop once the source's bound is at most
   r - 1 + m_d + m_s, m_s its least first-hop cost: then the source's
   distance is exact, and so is every distance below it by m_s or more,
   which covers every node the walk below can call tight.
2. Forward walk: from the source, repeatedly take the out-link to the
   smallest node id that is tight, i.e. whose distance plus the link's cost
   equals the current node's distance.

The walk yields the smallest sequence because every suffix of a min-cost
route is a min-cost route from its first node, and with positive link
costs any min-cost route is simple: picking the smallest tight successor
at each step decides the first differing position of any two min-cost
routes in favour of the walk. A node on no min-cost route is never tight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BRIDGE, Link, Network

PENALTY_WEIGHT = 10

_FAR = 1 << 62  # distance of a node with no route to the destination


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
    are the ends of u's out-links in ascending order. Link u -> v is known
    by its code u * n + v, n the node count. The bridges' out-links are also
    kept as flat numpy columns in ascending code order: `dst` and `code`,
    with `starts[i]` the first link of bridge `rows[i]`, and `into[v]` lists
    the codes of the bridges' links into v. Links to or from unknown nodes
    are left out.
    """

    def __init__(self, net: Network):
        self.names = sorted(net.nodes)
        self.id = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.out_ptr = [0]
        self.out_dst: list[int] = []
        rows, dst, code = [], [], []
        self.into: list[list[int]] = [[] for _ in range(n)]
        for u, name in enumerate(self.names):
            for link in net.out_links(name):  # sorted by destination name
                v = self.id.get(link.dst)
                if v is not None:
                    self.out_dst.append(v)
            a, b = self.out_ptr[-1], len(self.out_dst)
            self.out_ptr.append(b)
            if net.nodes[name].kind == BRIDGE and b > a:
                rows.append(u)
                dst.extend(self.out_dst[a:b])
                for v in self.out_dst[a:b]:
                    code.append(u * n + v)
                    self.into[v].append(u * n + v)
        self.rows = np.array(rows, dtype=np.intp)
        self.dst = np.array(dst, dtype=np.intp)
        self.code = np.array(code, dtype=np.int64)
        counts = np.diff(np.array(self.out_ptr, dtype=np.intp))[self.rows]
        self.starts = np.cumsum(counts) - counts

    def link_codes(self, path: tuple[int, ...]) -> list[int]:
        n = len(self.names)
        return [u * n + v for u, v in zip(path, path[1:])]


def _index(net: Network) -> _Index:
    if net._route_index is None:
        net._route_index = _Index(net)
    return net._route_index


def _ends(ix: _Index, src: str, dst: str) -> tuple[int, int]:
    s, d = ix.id.get(src), ix.id.get(dst)
    if s is None or d is None:
        raise Unreachable(f"no route from {src!r} to {dst!r}: unknown endpoint")
    return s, d


def _relax(
    ix: _Index, d: int, w: np.ndarray, first_hops=(), slack: int = 0
) -> np.ndarray:
    """Reverse distances to node d under link costs w (in `ix.code` order):
    step 1's min-plus relaxation, run until no distance falls or, given the
    source's first hops and their slack, until the source's bound is exact."""
    dist = np.full(len(ix.names), _FAR, dtype=np.int64)
    dist[d] = 0
    # every cost is below _FAR + PENALTY_WEIGHT < 2**63, so int64 is exact;
    # best >= 1 keeps a bridge dst at 0
    rounds = 0
    while min((c + int(dist[v]) for v, c in first_hops), default=_FAR) > rounds + slack:
        best = np.minimum.reduceat(w + dist[ix.dst], ix.starts)
        cur = dist[ix.rows]
        if not (best < cur).any():
            break
        dist[ix.rows] = np.minimum(cur, best)
        rounds += 1
    return dist


def _walk(
    ix: _Index, s: int, d: int, dist: list[int], penalized: set[int]
) -> tuple[int, ...]:
    """Step 2 from s over `dist`, a fresh list the walk may change at s."""
    n = len(ix.names)
    out_ptr, out_dst = ix.out_ptr, ix.out_dst
    for v in out_dst[out_ptr[s] : out_ptr[s + 1]]:
        c = PENALTY_WEIGHT if s * n + v in penalized else 1
        if dist[v] + c < dist[s]:
            dist[s] = dist[v] + c
    if dist[s] >= _FAR:
        raise Unreachable(f"no route from {ix.names[s]!r} to {ix.names[d]!r}")

    path = [s]
    v = s
    while v != d:
        base = v * n
        for nxt in out_dst[out_ptr[v] : out_ptr[v + 1]]:
            if dist[nxt] + (PENALTY_WEIGHT if base + nxt in penalized else 1) == dist[v]:
                path.append(nxt)
                v = nxt
                break
    return tuple(path)


def _search(ix: _Index, src: str, dst: str, penalized: set[int]) -> tuple[int, ...]:
    """Node ids of the lexicographically smallest min-cost route; links whose
    code is in `penalized` cost PENALTY_WEIGHT, all others 1."""
    s, d = _ends(ix, src, dst)
    n = len(ix.names)
    w = np.ones(len(ix.code), dtype=np.int64)
    if penalized and len(w):
        pen = np.fromiter(penalized, dtype=np.int64, count=len(penalized))
        at = np.minimum(np.searchsorted(ix.code, pen), len(w) - 1)
        w[at[ix.code[at] == pen]] = PENALTY_WEIGHT
    first_hops = [
        (v, PENALTY_WEIGHT if s * n + v in penalized else 1)
        for v in ix.out_dst[ix.out_ptr[s] : ix.out_ptr[s + 1]]
    ]
    # least costs of a first hop and of a bridge's link into dst (a lower
    # bound, PENALTY_WEIGHT when no bridge links into dst)
    into_dst = 1 if any(c not in penalized for c in ix.into[d]) else PENALTY_WEIGHT
    slack = min((c for _, c in first_hops), default=1) + into_dst - 1
    return _walk(ix, s, d, _relax(ix, d, w, first_hops, slack).tolist(), penalized)


def shortest_path(net: Network, src: str, dst: str) -> Route:
    """Minimum-hop route between two end devices."""
    return candidate_routes(net, src, dst, 1)[0]


def candidate_routes(
    net: Network, src: str, dst: str, k: int = 2, reverse: dict | None = None
) -> list[Route]:
    """Up to k distinct routes, later ones penalized away from earlier ones.

    The first route walks its destination's converged unit-cost reverse
    distance, read from `reverse` (destination node id -> int64 array) or
    relaxed and stored there. One dict passed to every call of a batch
    relaxes each destination once; its distances hold for `net` alone.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ix = _index(net)
    s, d = _ends(ix, src, dst)
    if reverse is None:
        reverse = {}
    dist = reverse.get(d)
    if dist is None:
        dist = reverse[d] = _relax(ix, d, np.ones(len(ix.code), dtype=np.int64))
    found = [_walk(ix, s, d, dist.tolist(), set())]
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
