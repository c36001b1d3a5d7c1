"""Candidate route computation: short, diverse routes per stream.

The first candidate is the minimum-hop route. Further candidates come from
searching again in a weighted view where links already used by selected
routes cost 10 instead of 1, which steers later candidates away from earlier
ones without forbidding overlap outright.

Every search returns the min-cost route whose node sequence is
lexicographically smallest; interior nodes are bridges only. It runs on
integer node ids numbered in sorted node-name order, so comparing id
sequences compares name sequences, and works in two steps:

1. Reverse distance: the cost from each node to the destination.
   - Unit costs: a level-synchronous breadth-first search from all of a
     batch's destinations at once, whose levels are matrix products (Kepner
     and Gilbert, 2011). Level 0 holds each destination; a bridge with no
     distance yet takes distance L + 1 when one of its out-links leads into
     level L. One float32 product of the bridges' 0/1 out-link matrix with
     the 0/1 (node x destination) frontier of level L gives, for every
     bridge and destination, its count of out-links into level L: the
     bridges with a nonzero count form level L + 1, and for them that count
     is the number of tight out-links u -> v, those with D[v] + 1 = D[u].
     The counts are integers at most a bridge's out-degree, so while the
     network has fewer than 2**24 nodes float32 holds every partial sum
     exactly, whatever order BLAS adds in. The destination stays at 0 and
     no other end device gets a distance, so none is ever interior. D
     depends on the destination alone, so one search serves every stream
     of a batch that shares it; each destination's D and tight counts
     become one Python list each, once per batch, which the first walk
     reads without a copy.
   - Penalised costs repair D (Ramalingam and Reps, 1996). A cost that
     rises lowers no distance, and a node keeps its D while it keeps a
     tight out-link that is unpenalised and leads to a node that keeps its
     own. Every other node is affected: its tight out-links are all
     penalised or lead to affected nodes, found by lowering the counts of
     the penalised tight links' tails and then, from each affected node,
     those of its tight predecessors. Unaffected nodes keep an exact D; one
     Dijkstra over the affected nodes alone, seeded with each one's least
     cost through an unaffected successor, makes theirs exact too. A repair
     starts from a copy of the destination's list.
   - A link that every route crosses, the source's only out-link or the
     destination's only in-link, adds the same cost to every route and so
     is never penalised: in both the repair and the walk it costs 1.
     Penalised, it would affect every node behind it.
2. Forward walk: the source's distance, kept in a local apart from the
   list, is the least over its own out-links; from the source, repeatedly
   take the out-link to the smallest node id that is tight, i.e. whose
   distance plus the link's cost equals the current node's distance.

The walk yields the smallest sequence because every suffix of a min-cost
route is a min-cost route from its first node, and with positive link
costs any min-cost route is simple: picking the smallest tight successor
at each step decides the first differing position of any two min-cost
routes in favour of the walk. A node on no min-cost route is never tight.
"""

from __future__ import annotations

import heapq
import weakref
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
    by its code u * n + v, n the node count, and `into[v]` lists the tails of
    all links into v. The bridges' out-links are also kept as `out`, a
    float32 0/1 matrix with one row per bridge, `rows[i]` the id of row i's
    bridge, and one column per node: 128 x 256 x 4 bytes = 128 KiB for 128
    bridges with one device each. Links to or from unknown nodes are left
    out.
    """

    def __init__(self, net: Network):
        self.names = sorted(net.nodes)
        self.id = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.out_ptr = [0]
        self.out_dst: list[int] = []
        rows = []
        self.into: list[list[int]] = [[] for _ in range(n)]
        for u, name in enumerate(self.names):
            for link in net.out_links(name):  # sorted by destination name
                v = self.id.get(link.dst)
                if v is not None:
                    self.out_dst.append(v)
                    self.into[v].append(u)
            self.out_ptr.append(len(self.out_dst))
            if net.nodes[name].kind == BRIDGE:
                rows.append(u)
        self.rows = np.array(rows, dtype=np.intp)
        self.out = np.zeros((len(rows), n), dtype=np.float32)
        for i, u in enumerate(rows):
            self.out[i, self.out_dst[self.out_ptr[u] : self.out_ptr[u + 1]]] = 1

    def link_codes(self, path: tuple[int, ...]) -> list[int]:
        n = len(self.names)
        return [u * n + v for u, v in zip(path, path[1:])]


#: each network's integer view, built on first use and dropped with the network
_INDEXES: weakref.WeakKeyDictionary[Network, _Index] = weakref.WeakKeyDictionary()


def _index(net: Network) -> _Index:
    ix = _INDEXES.get(net)
    if ix is None:
        ix = _INDEXES[net] = _Index(net)
    return ix


def _ends(ix: _Index, src: str, dst: str) -> tuple[int, int]:
    s, d = ix.id.get(src), ix.id.get(dst)
    if s is None or d is None:
        raise Unreachable(f"no route from {src!r} to {dst!r}: unknown endpoint")
    return s, d


def _relax(ix: _Index, dests: list[int]) -> list[tuple[list[int], list[int]]]:
    """Step 1 for unit costs from every node id in `dests` at once: for each,
    in order, the list of each node's reverse distance D and the list of its
    count of tight out-links."""
    n, m = len(ix.names), len(dests)
    rows = ix.rows
    # (bridge, destination) cells: D, a tight count and whether D is unknown;
    # a bridge destination keeps 0
    dist = np.full((len(rows), m), _FAR, dtype=np.int64)
    count = np.zeros((len(rows), m), dtype=np.float32)
    unseen = rows[:, None] != np.array(dests, dtype=np.intp)
    # each bridge's count of out-links into the last level, exact in float32
    # (module docstring): level 0 holds the destinations alone, so its
    # product with `out` is a column gather, and later levels hold bridges
    # alone, so theirs need only the bridges' columns
    tight = ix.out[:, dests]
    between = ix.out[:, rows]
    level = 0
    while True:
        new = (tight > 0) & unseen
        if not new.any():
            break
        level += 1
        unseen &= ~new
        dist[new] = level
        np.copyto(count, tight, where=new)
        tight = between @ new.astype(np.float32)
    # one row per destination, filled with one shared _FAR int: the end
    # devices' entries refer to it, so freeing a batch's lists frees few ints
    full = np.full((m, n), _FAR, dtype=object)
    full[:, rows] = dist.T
    full[np.arange(m), dests] = 0
    counts = np.zeros((m, n), dtype=np.int64)
    counts[:, rows] = count.T
    return list(zip(full.tolist(), counts.tolist()))


def _repair(
    ix: _Index, rev: tuple[list[int], list[int]], penalized: set[int]
) -> list[int]:
    """Step 1 for penalized costs: a copy of `rev`'s distances (see `_relax`)
    with those of the affected nodes recomputed."""
    n = len(ix.names)
    dist, count = rev[0].copy(), rev[1]
    lost: dict[int, int] = {}
    affected: list[int] = []
    # a node is affected once it has lost each tight out-link, to the penalty
    # or to an affected head; `links` lists the candidates, each link once
    links = [divmod(code, n) for code in penalized]
    for u, v in links:  # grows while it is read
        if dist[v] + 1 == dist[u]:
            lost[u] = m = lost.get(u, 0) + 1
            if m == count[u]:
                affected.append(u)
                links.extend((p, u) for p in ix.into[u] if p * n + u not in penalized)
    # Dijkstra over the affected nodes, seeded through unaffected successors
    open_ = set(affected)
    heap = []
    for u in affected:
        best, base = _FAR, u * n
        for v in ix.out_dst[ix.out_ptr[u] : ix.out_ptr[u + 1]]:
            c = PENALTY_WEIGHT if base + v in penalized else 1
            if v not in open_ and dist[v] + c < best:
                best = dist[v] + c
        heap.append((best, u))
    heapq.heapify(heap)
    while heap:
        du, u = heapq.heappop(heap)
        if u in open_:
            open_.remove(u)
            dist[u] = du
            for p in ix.into[u]:
                if p in open_:
                    c = PENALTY_WEIGHT if p * n + u in penalized else 1
                    heapq.heappush(heap, (du + c, p))
    return dist


def _walk(
    ix: _Index, s: int, d: int, dist: list[int], penalized: set[int]
) -> tuple[int, ...]:
    """Step 2 from s over `dist`, which the walk reads and does not change."""
    n = len(ix.names)
    out_ptr, out_dst = ix.out_ptr, ix.out_dst
    ds = dist[s]
    for v in out_dst[out_ptr[s] : out_ptr[s + 1]]:
        c = PENALTY_WEIGHT if s * n + v in penalized else 1
        if dist[v] + c < ds:
            ds = dist[v] + c
    if ds >= _FAR:
        raise Unreachable(f"no route from {ix.names[s]!r} to {ix.names[d]!r}")

    path = [s]
    v, dv = s, ds
    while v != d:
        base = v * n
        for nxt in out_dst[out_ptr[v] : out_ptr[v + 1]]:
            dn = dist[nxt]
            if dn + (PENALTY_WEIGHT if base + nxt in penalized else 1) == dv:
                path.append(nxt)
                v, dv = nxt, dn
                break
        else:
            raise RuntimeError(
                f"no tight out-link from {ix.names[v]!r} toward {ix.names[d]!r}"
            )
    return tuple(path)


def candidate_routes(
    net: Network, src: str, dst: str, k: int = 2, reverse: dict | None = None
) -> list[Route]:
    """Up to k distinct routes, later ones penalized away from earlier ones.

    The first route walks its destination's converged unit-cost reverse
    distance, read from `reverse` (destination name -> `_relax`'s pair of
    lists for it, or None until relaxed). On a miss, every listed
    destination still None that names a node of `net` is relaxed in one
    batch with this one, and stored. One dict passed to every call of a
    batch, listing the batch's destinations, relaxes them all once; its
    distances hold for `net` alone.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ix = _index(net)
    s, d = _ends(ix, src, dst)
    if reverse is None:
        reverse = {}
    rev = reverse.get(dst)
    if rev is None:
        todo = [x for x, r in reverse.items() if r is None and x in ix.id and x != dst]
        todo.append(dst)
        reverse.update(zip(todo, _relax(ix, [ix.id[x] for x in todo])))
        rev = reverse[dst]
    found = [_walk(ix, s, d, rev[0], set())]
    # links that every route crosses stay unpenalized (module docstring)
    n, first, into_d = len(ix.names), ix.out_ptr[s], ix.into[d]
    crossed = {into_d[0] * n + d} if len(into_d) == 1 else set()
    if ix.out_ptr[s + 1] - first == 1:
        crossed.add(s * n + ix.out_dst[first])
    used = set(ix.link_codes(found[0])) - crossed
    while len(found) < k:
        nxt = _walk(ix, s, d, _repair(ix, rev, used), used)
        if nxt in found:
            break  # penalty view is now stable, no further distinct route
        found.append(nxt)
        used.update(ix.link_codes(nxt))
        used -= crossed
    names = ix.names
    return [
        Route(tuple(net.link(names[u], names[v]) for u, v in zip(p, p[1:])))
        for p in found
    ]
