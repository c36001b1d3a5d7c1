"""Network and stream data model.

All times are integral macro ticks (1 tick = 1 microsecond). Link rates are
expressed in bits per macro tick (1 Gbit/s = 1000 bits/tick) so all timing
arithmetic stays in integers. Traffic volumes are exact rationals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

BRIDGE = "bridge"
END_DEVICE = "end-device"

#: periods are below this bound, so every start the conflict graph stores
#: fits in the low 32 bits of its interval-store key
MAX_PERIOD = 2**31


@dataclass(frozen=True)
class Node:
    id: str
    kind: str
    processing_delay: int = 0  # macro ticks, meaningful for bridges only

    def __post_init__(self):
        if self.kind not in (BRIDGE, END_DEVICE):
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.processing_delay < 0:
            raise ValueError("processing_delay must be >= 0")


@dataclass(frozen=True)
class Link:
    """One directed link. A full-duplex cable is a pair of these."""

    src: str
    dst: str
    rate: int  # bits per macro tick
    propagation_delay: int = 1  # macro ticks

    @property
    def key(self) -> tuple[str, str]:
        return (self.src, self.dst)


def _int_field(doc: dict, key: str, default: int | None = None) -> int:
    """doc[key], or `default` when given and the key is absent."""
    value = doc[key] if default is None else doc.get(key, default)
    if type(value) is not int:
        raise ValueError(f"{key} must be an int, got {value!r}")
    return value


class Network:
    """Directed-link topology of bridges and end devices."""

    def __init__(self, nodes: Iterable[Node], links: Iterable[Link]):
        self.nodes: dict[str, Node] = {}
        for n in nodes:
            if n.id in self.nodes:
                raise ValueError(f"duplicate node id {n.id!r}")
            self.nodes[n.id] = n
        self.links: dict[tuple[str, str], Link] = {}
        for l in links:
            if l.key in self.links:
                raise ValueError(f"duplicate link {l.key}")
            self.links[l.key] = l
        self._out: dict[str, list[Link]] = {nid: [] for nid in self.nodes}
        for l in self.links.values():
            if l.src in self._out:
                self._out[l.src].append(l)
        for lst in self._out.values():
            lst.sort(key=lambda l: l.dst)

    def node(self, nid: str) -> Node:
        return self.nodes[nid]

    def link(self, src: str, dst: str) -> Link:
        return self.links[(src, dst)]

    def out_links(self, nid: str) -> list[Link]:
        return self._out[nid]

    def is_bridge(self, nid: str) -> bool:
        return self.nodes[nid].kind == BRIDGE

    def end_devices(self) -> list[str]:
        return sorted(n.id for n in self.nodes.values() if n.kind == END_DEVICE)

    def bridges(self) -> list[str]:
        return sorted(n.id for n in self.nodes.values() if n.kind == BRIDGE)

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {"id": n.id, "kind": n.kind, "processing_delay": n.processing_delay}
                for n in sorted(self.nodes.values(), key=lambda n: n.id)
            ],
            "links": [
                {
                    "from": l.src,
                    "to": l.dst,
                    "rate": l.rate,
                    "propagation_delay": l.propagation_delay,
                }
                for l in sorted(self.links.values(), key=lambda l: l.key)
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Network":
        """The network of a `to_dict` document; a delay or rate that is not
        an int raises ValueError."""
        nodes = [
            Node(n["id"], n["kind"], _int_field(n, "processing_delay", 0))
            for n in d["nodes"]
        ]
        links = [
            Link(l["from"], l["to"], _int_field(l, "rate"),
                 _int_field(l, "propagation_delay", 1))
            for l in d["links"]
        ]
        return cls(nodes, links)

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1)

    @classmethod
    def load(cls, path) -> "Network":
        with open(path) as f:
            return cls.from_dict(json.load(f))


@dataclass(frozen=True)
class Stream:
    """Periodic unicast time-triggered stream.

    The deadline always equals the period; frames are released at the start
    of their period and must arrive before the next one.
    """

    id: str
    src: str
    dst: str
    period: int  # macro ticks
    size: int  # bytes

    def __post_init__(self):
        if not 0 < self.period < MAX_PERIOD:
            raise ValueError(f"period must be > 0 and < 2**31, got {self.period}")
        if self.size <= 0:
            raise ValueError("size must be > 0")
        if self.src == self.dst:
            raise ValueError("src and dst must differ")


@dataclass
class StreamBatch:
    """One update batch: streams joining and admitted streams leaving."""

    iteration: int
    add: list[Stream] = field(default_factory=list)
    delete: list[str] = field(default_factory=list)

    def check(self, admitted: set[str]) -> None:
        add_ids = {s.id for s in self.add}
        if len(add_ids) != len(self.add):
            raise ValueError("duplicate ids in add set")
        stale = add_ids & admitted
        if stale:
            raise ValueError(f"add set reuses admitted ids: {sorted(stale)}")
        unknown = set(self.delete) - admitted
        if unknown:
            raise ValueError(f"delete set names unadmitted ids: {sorted(unknown)}")


def traffic_volume(stream: Stream) -> Fraction:
    """Bytes per macro tick, exact."""
    return Fraction(stream.size, stream.period)


def hypercycle(periods: Iterable[int]) -> int:
    """Least common multiple of the given periods."""
    periods = list(periods)
    if not periods:
        raise ValueError("hypercycle of empty period set")
    if any(p <= 0 for p in periods):
        raise ValueError("periods must be > 0")
    return math.lcm(*periods)


def validate_network(net: Network) -> list[str]:
    """Return all invariant violations; empty list means the network is ok."""
    problems = []
    for l in net.links.values():
        for end in (l.src, l.dst):
            if end not in net.nodes:
                problems.append(f"dangling endpoint: link {l.key} references {end!r}")
        if l.rate <= 0:
            problems.append(f"nonpositive rate on link {l.key}")
        if l.propagation_delay < 0:
            problems.append(f"negative propagation delay on link {l.key}")

    bridges = set(net.bridges())
    if bridges:
        adj: dict[str, set[str]] = {b: set() for b in bridges}
        for l in net.links.values():
            if l.src in bridges and l.dst in bridges:
                adj[l.src].add(l.dst)
                adj[l.dst].add(l.src)
        seen = set()
        stack = [min(bridges)]
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            stack.extend(adj[b] - seen)
        if seen != bridges:
            problems.append("disconnected bridge subgraph")
    return problems
