import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsnplan.model import BRIDGE, END_DEVICE, Link, Network, Node
from tsnplan.routing import Route
from tsnplan.timing import (
    OccupancySchedule,
    OracleBoundExceeded,
    brute_force_conflict,
    frames_conflict,
    link_occupancy,
    transmission_time,
)

from conftest import chain_net, chain_route, max_phase, mkstream

L = ("n0", "n1")  # arbitrary shared directed link for synthetic schedules


def sched(*entries):
    return OccupancySchedule(tuple(entries), arrival=max(e for _, _, e in entries))


def test_transmission_time_values():
    assert transmission_time(1500, 1000) == 12
    assert transmission_time(500, 1000) == 4
    assert transmission_time(125, 1000) == 1
    assert transmission_time(100, 1000) == 1  # rounds up
    with pytest.raises(ValueError):
        transmission_time(0, 1000)
    with pytest.raises(ValueError):
        transmission_time(100, 0)


def test_link_occupancy_chain_example():
    net = chain_net(2)  # rate 1000, propagation 1, processing 4
    route = chain_route(net, 2)
    s = mkstream("s", period=100, size=500, src="dA", dst="dZ")
    occ = link_occupancy(net, s, route, 0)
    assert occ.entries == (
        (("dA", "b0"), 0, 4),
        (("b0", "b1"), 9, 13),
        (("b1", "dZ"), 18, 22),
    )
    assert occ.arrival == 23


def test_link_occupancy_phase_shift():
    net = chain_net(2)
    route = chain_route(net, 2)
    s = mkstream("s", period=100, size=500, src="dA", dst="dZ")
    base = link_occupancy(net, s, route, 0)
    shifted = link_occupancy(net, s, route, 7)
    assert shifted.arrival == base.arrival + 7
    assert shifted.entries == tuple(
        (k, a + 7, b + 7) for k, a, b in base.entries
    )


@given(st.integers(0, 500))
def test_link_occupancy_shift_equivariance(phi):
    net = chain_net(3)
    route = chain_route(net, 3)
    s = mkstream("s", period=1000, size=750, src="dA", dst="dZ")
    base = link_occupancy(net, s, route, 0)
    shifted = link_occupancy(net, s, route, phi)
    assert shifted.arrival == base.arrival + phi
    assert shifted.entries == tuple((k, a + phi, b + phi) for k, a, b in base.entries)


@given(
    hops=st.lists(
        st.tuples(st.integers(1, 3000), st.integers(0, 9), st.integers(0, 9)),
        min_size=1, max_size=5,
    ),
    size=st.integers(1, 1500),
    phase=st.integers(0, 100),
)
def test_link_occupancy_sums_each_hop(hops, size, phase):
    """Each hop starts when the last ends, plus its propagation delay and, at
    an interior bridge, that bridge's processing delay; a hop lasts
    `transmission_time`. A link of rate 0 raises."""
    names = [f"n{i}" for i in range(len(hops) + 1)]
    nodes = [Node(x, BRIDGE, proc) for x, (_, _, proc) in zip(names[1:], hops)]
    links = [Link(u, v, rate, prop) for u, v, (rate, prop, _) in zip(names, names[1:], hops)]
    net = Network([Node(names[0], END_DEVICE)] + nodes, links)
    s = mkstream("s", period=10**6, size=size, src=names[0], dst=names[-1])
    occ = link_occupancy(net, s, Route(tuple(links)), phase)
    t, want = phase, []
    for i, (rate, prop, proc) in enumerate(hops):
        end = t + transmission_time(size, rate)
        want.append(((names[i], names[i + 1]), t, end))
        t = end + prop + (proc if i < len(hops) - 1 else 0)
    assert occ == OccupancySchedule(tuple(want), t)
    links[-1] = Link(names[-2], names[-1], 0)
    with pytest.raises(ValueError, match="rate"):
        link_occupancy(net, s, Route(tuple(links)), phase)


def test_single_link_route():
    net = chain_net(2)
    route_key = ("dA", "b0")
    from tsnplan.routing import Route

    r = Route((net.link(*route_key),))
    s = mkstream("s", period=100, size=500, src="dA", dst="b0")
    occ = link_occupancy(net, s, r, 3)
    assert occ.entries == ((route_key, 3, 7),)


def test_max_phase_values():
    net = chain_net(2)
    route = chain_route(net, 2)
    # arrival at phase 0 is 23 (see chain example)
    assert max_phase(net, mkstream("s", 100, 500, "dA", "dZ"), route) == 77
    assert max_phase(net, mkstream("s", 23, 500, "dA", "dZ"), route) == 0
    assert max_phase(net, mkstream("s", 22, 500, "dA", "dZ"), route) < 0


def test_frames_conflict_identical_intervals():
    a = sched((L, 0, 4))
    assert frames_conflict(a, 100, a, 100) is True


def test_frames_conflict_touching_endpoints_do_not_conflict():
    assert frames_conflict(sched((L, 0, 4)), 100, sched((L, 4, 8)), 100) is False


def test_frames_conflict_cross_period_miss():
    # closest repetitions are [100,104) vs [96,100): half-open, disjoint
    a = sched((L, 0, 4))
    b = sched((L, 96, 100))
    assert frames_conflict(a, 100, b, 250) is False
    assert brute_force_conflict(a, 100, b, 250) is False


def test_frames_conflict_cross_period_hit():
    a = sched((L, 0, 4))
    b = sched((L, 2, 6))
    assert frames_conflict(a, 100, b, 250) is True
    assert brute_force_conflict(a, 100, b, 250) is True


def test_frames_conflict_disjoint_links():
    a = sched((("n0", "n1"), 0, 4))
    b = sched((("n1", "n2"), 0, 4))
    assert frames_conflict(a, 100, b, 100) is False
    assert brute_force_conflict(a, 100, b, 100) is False


def test_oracle_bound():
    with pytest.raises(OracleBoundExceeded):
        brute_force_conflict(sched((L, 0, 1)), 2**21, sched((L, 0, 1)), 3**9)


@st.composite
def schedule_pair(draw, late=False):
    """Two schedules with their periods. Each interval lies in [0, period),
    or, when `late`, starts anywhere in [0, 3 * period) and lasts up to one
    period."""
    links = [("u0", "u1"), ("u1", "u2"), ("u2", "u3"), ("u3", "u4")]

    def one(period):
        n = draw(st.integers(1, 3))
        chosen = draw(st.permutations(links))[:n]
        entries = []
        for key in chosen:
            s = draw(st.integers(0, 3 * period - 1 if late else period - 1))
            e = draw(st.integers(s + 1, s + period if late else period))
            entries.append((key, s, e))
        return OccupancySchedule(tuple(entries), max(e for _, _, e in entries))

    pa = draw(st.integers(1, 64))
    pb = draw(st.integers(1, 64))
    return one(pa), pa, one(pb), pb


@settings(max_examples=300, deadline=None)
@given(schedule_pair())
def test_frames_conflict_matches_brute_force(case):
    a, pa, b, pb = case
    assert frames_conflict(a, pa, b, pb) == brute_force_conflict(a, pa, b, pb)


@settings(max_examples=300, deadline=None)
@given(schedule_pair(late=True))
def test_frames_conflict_matches_brute_force_past_the_period(case):
    a, pa, b, pb = case
    assert frames_conflict(a, pa, b, pb) == brute_force_conflict(a, pa, b, pb)


@settings(max_examples=100, deadline=None)
@given(schedule_pair())
def test_frames_conflict_is_symmetric(case):
    a, pa, b, pb = case
    assert frames_conflict(a, pa, b, pb) == frames_conflict(b, pb, a, pa)
