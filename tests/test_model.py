import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsnplan.model import (
    BRIDGE,
    END_DEVICE,
    Link,
    Network,
    Node,
    Stream,
    StreamBatch,
    hypercycle,
    traffic_volume,
    validate_network,
)
from tsnplan.harness import gen_ring


def test_traffic_volume_values():
    assert traffic_volume(Stream("s", "a", "b", 2000, 1500)) == Fraction(3, 4)
    assert traffic_volume(Stream("s", "a", "b", 125, 125)) == Fraction(1)
    assert traffic_volume(Stream("s", "a", "b", 100, 250)) == Fraction(5, 2)


def test_traffic_volume_is_exact():
    vol = traffic_volume(Stream("s", "a", "b", 300, 100))
    assert vol == Fraction(1, 3) and isinstance(vol, Fraction)


def test_hypercycle_values():
    assert hypercycle([100]) == 100
    assert hypercycle([100, 250]) == 500
    assert hypercycle([250, 500, 1000, 2000]) == 2000


def test_hypercycle_rejects_bad_input():
    with pytest.raises(ValueError):
        hypercycle([])
    with pytest.raises(ValueError):
        hypercycle([100, 0])


@given(st.lists(st.integers(1, 40), min_size=1, max_size=5))
def test_hypercycle_is_least_common_multiple(periods):
    h = hypercycle(periods)
    assert h >= 1 and all(h % p == 0 for p in periods)
    # minimality: the lcm divides h, so if h were larger, h // q would still
    # be a common multiple for some prime q dividing h
    for q in prime_factors(h):
        assert not all((h // q) % p == 0 for p in periods)


def prime_factors(n: int) -> set[int]:
    out, q = set(), 2
    while q * q <= n:
        while n % q == 0:
            out.add(q)
            n //= q
        q += 1
    if n > 1:
        out.add(n)
    return out


def test_stream_deadline_equals_period():
    with pytest.raises(ValueError):
        Stream("s", "a", "a", 100, 500)
    with pytest.raises(ValueError):
        Stream("s", "a", "b", 0, 500)
    with pytest.raises(ValueError):
        Stream("s", "a", "b", 100, 0)


def test_stream_period_stays_below_2_pow_31():
    # two frames on [0, 10) with these periods overlap at tick 0, but their
    # lcm wraps int64, so the conflict test would miss it: they are refused
    for period in (2**31, 3500000017, 3500000011):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            Stream("s", "a", "b", period, 500)
    assert Stream("s", "a", "b", 2**31 - 1, 500).period == 2**31 - 1


def test_batch_check_rules():
    s = Stream("s1", "a", "b", 100, 500)
    StreamBatch(0, add=[s]).check(set())
    with pytest.raises(ValueError):
        StreamBatch(0, add=[s, s]).check(set())
    with pytest.raises(ValueError):
        StreamBatch(0, add=[s]).check({"s1"})
    with pytest.raises(ValueError):
        StreamBatch(0, delete=["ghost"]).check(set())
    with pytest.raises(ValueError):
        StreamBatch(0, add=[s], delete=["s1"]).check({"s1"})


def test_validate_network_ring_ok():
    assert validate_network(gen_ring(4)) == []


def test_validate_network_dangling_endpoint():
    net = Network(
        [Node("a", END_DEVICE), Node("b", END_DEVICE)],
        [Link("a", "b", 1000), Link("b", "ghost", 1000)],
    )
    assert any("dangling endpoint" in p for p in validate_network(net))


def test_validate_network_disconnected_bridges():
    nodes = [Node(f"b{i}", BRIDGE) for i in range(4)]
    links = [
        Link("b0", "b1", 1000), Link("b1", "b0", 1000),
        Link("b2", "b3", 1000), Link("b3", "b2", 1000),
    ]
    assert any("disconnected" in p for p in validate_network(Network(nodes, links)))


def test_validate_network_nonpositive_rate():
    net = Network(
        [Node("a", END_DEVICE), Node("b", END_DEVICE)], [Link("a", "b", 0)]
    )
    assert any("rate" in p for p in validate_network(net))


def test_network_rejects_duplicates():
    with pytest.raises(ValueError):
        Network([Node("a", BRIDGE), Node("a", BRIDGE)], [])
    with pytest.raises(ValueError):
        Network(
            [Node("a", BRIDGE), Node("b", BRIDGE)],
            [Link("a", "b", 1000), Link("a", "b", 1000)],
        )


def test_network_json_round_trip(tmp_path):
    net = gen_ring(5)
    path = tmp_path / "topo.json"
    net.save(path)
    back = Network.load(path)
    assert back.to_dict() == net.to_dict()
    assert sorted(back.links) == sorted(net.links)
    assert back.node("b0").processing_delay == net.node("b0").processing_delay
