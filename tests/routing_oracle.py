"""Reference router for the routing tests.

`_dijkstra` is a plain Dijkstra whose heap entries carry the whole node
path, so equal-cost pops come out in lexicographic node order. It is slow
but obviously right, which makes it the oracle `tsnplan.routing` is
checked against. `oracle_candidate_routes` repeats the penalized
candidate loop of `tsnplan.routing.candidate_routes` on top of it.

`reference_relax` is the min-plus relaxation `tsnplan.routing._relax` used
before it searched breadth-first from many destinations at once; the
batched search is checked against it exactly.
"""

from __future__ import annotations

import heapq

import numpy as np

from tsnplan.model import Link, Network
from tsnplan.routing import _FAR, PENALTY_WEIGHT, Route, Unreachable, _Index


def _dijkstra(net: Network, src: str, dst: str, weights: dict | None) -> Route:
    """Min-cost path, ties broken by lexicographically smallest node sequence.

    Interior nodes are restricted to bridges; end devices other than dst are
    never entered.
    """

    def w(link: Link) -> int:
        if weights is None:
            return 1
        return weights.get(link.key, 1)

    # heap entries carry the node-id path so equal-cost pops come out in
    # lexicographic order
    heap: list[tuple[int, tuple[str, ...]]] = [(0, (src,))]
    done: set[str] = set()
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node == dst:
            links = tuple(net.link(a, b) for a, b in zip(path, path[1:]))
            return Route(links)
        if node in done:
            continue
        done.add(node)
        for link in net.out_links(node):
            nxt = link.dst
            if nxt in done or nxt in path:
                continue
            if nxt != dst and not net.is_bridge(nxt):
                continue
            heapq.heappush(heap, (cost + w(link), path + (nxt,)))
    raise Unreachable(f"no route from {src!r} to {dst!r}")


def oracle_candidate_routes(net: Network, src: str, dst: str, k: int) -> list[Route]:
    routes = [_dijkstra(net, src, dst, None)]
    used: set[tuple[str, str]] = {l.key for l in routes[0].links}
    while len(routes) < k:
        weights = {key: PENALTY_WEIGHT for key in used}
        nxt = _dijkstra(net, src, dst, weights)
        if any(nxt.links == r.links for r in routes):
            break
        routes.append(nxt)
        used.update(l.key for l in nxt.links)
    return routes


def reference_relax(ix: _Index, d: int) -> np.ndarray:
    """Unit-cost reverse distances to node d by min-plus rounds over the
    bridges' out-links, run until no distance falls. Row 0 holds each node's
    distance D, row 1 its count of tight out-links u -> v, D[v] + 1 = D[u]."""
    ptr = np.array(ix.out_ptr, dtype=np.intp)
    rows = ix.rows[ptr[ix.rows + 1] > ptr[ix.rows]]  # bridges with out-links
    counts = ptr[rows + 1] - ptr[rows]
    src = np.repeat(rows, counts)
    dst = np.array([v for u in rows for v in ix.out_dst[ptr[u] : ptr[u + 1]]], dtype=np.intp)
    starts = np.cumsum(counts) - counts
    rev = np.full((2, len(ix.names)), _FAR, dtype=np.int64)
    dist = rev[0]
    dist[d] = 0
    # every distance is below _FAR + 1 < 2**63, so int64 is exact; best >= 1
    # keeps a bridge d at 0
    while len(rows):
        best = np.minimum.reduceat(dist[dst], starts) + 1
        cur = dist[rows]
        if not (best < cur).any():
            break
        dist[rows] = np.minimum(cur, best)
    tight = dist[dst] + 1 == dist[src]
    rev[1] = np.bincount(src[tight], minlength=len(ix.names))
    return rev
