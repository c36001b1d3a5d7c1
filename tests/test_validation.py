"""`validate_plan` against the pure-Python reference in validation_oracle.py.

Both oracles must return the same problems, in the same words and order,
on illegal plans and on every plan of a benchmark episode, and refuse a
link past `ORACLE_BOUND` with the same message.
"""

import tracemalloc
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsnplan import solver
from tsnplan.model import Stream, StreamBatch
from tsnplan.routing import Route
from tsnplan.solver import TrafficPlan, validate_plan
from tsnplan.timing import OracleBoundExceeded

from conftest import build_config, shared_link_net, through_route
import validation_oracle
from validation_oracle import oracle_validate_plan

NET = shared_link_net()
# a{i} -> z{j} over (b0, b1), back the other way, and z{j} -> b1 -> z{k}:
# links that every route, some routes or one route crosses
ROUTES = (
    [through_route(NET, i, j) for i in range(4) for j in range(4)]
    + [Route((NET.link(f"z{j}", "b1"), NET.link("b1", "b0"), NET.link("b0", f"a{i}")))
       for i in range(4) for j in range(4)]
    + [Route((NET.link(f"z{j}", "b1"), NET.link("b1", f"z{k}")))
       for j in range(4) for k in range(4) if j != k]
)
# mixed harmonic and non-harmonic periods; 3,000 bytes take 24 ticks,
# longer than a 20-tick period
PERIODS = (20, 30, 40, 50, 60, 75, 100, 120)
SIZES = (125, 500, 1000, 1500, 3000)
# ids whose string order differs from their numeric order
NAMES = ("s2", "s10", "s1", "S1", "a", "b_", "x", "é")

entries = st.lists(
    st.tuples(
        st.integers(0, len(ROUTES) - 1),
        st.sampled_from(PERIODS),
        st.sampled_from(SIZES),
        st.integers(0, 130),  # phases past the period make late frames
        st.booleans(),  # keep the frame in time where it can be
    ),
    max_size=len(NAMES),
)


def assert_same(net, plan):
    try:
        expected = oracle_validate_plan(net, plan)
    except OracleBoundExceeded as e:
        with pytest.raises(OracleBoundExceeded) as got:
            validate_plan(net, plan)
        assert str(got.value) == str(e)
        return None
    assert validate_plan(net, plan) == expected
    return expected


@settings(max_examples=400, deadline=None)
@given(entries, st.permutations(NAMES))
def test_validate_plan_matches_the_reference_on_illegal_plans(drawn, names):
    plan = TrafficPlan(0)
    for sid, (ri, period, size, phase, in_time) in zip(names, drawn):
        route = ROUTES[ri]
        s = Stream(sid, route.links[0].src, route.links[-1].dst, period, size)
        c = build_config(NET, s, ri, route, 0)
        if in_time and c.schedule.arrival <= period:
            phase %= period - c.schedule.arrival + 1
        plan.assignments[sid] = c._replace(phase=phase)
    assert_same(NET, plan)


@pytest.mark.parametrize("phases, expected", [
    # equal starts on (b0, b1): the stream ids break the tie
    ((0, 0, 10), ["overlap on link ('a0', 'b0'): s10 and s2 both occupy ticks [0, 4)",
                  "overlap on link ('b0', 'b1'): s10 and s2 both occupy ticks [5, 9)",
                  "overlap on link ('b1', 'z0'): s10 and s2 both occupy ticks [10, 14)"]),
    # s2 and s1 are late: folded into the 100-tick hypercycle, s2's frames
    # start before s10's on every link of theirs, and s1's frame on (b0, b1)
    # starts at 0, before s2's
    ((98, 0, 95), ["deadline miss: s2 arrives at 113 > 100",
                   "deadline miss: s1 arrives at 110 > 100",
                   "overlap on link ('a0', 'b0'): s2 and s10 both occupy ticks [0, 2)",
                   "overlap on link ('b0', 'b1'): s1 and s2 both occupy ticks [3, 4)",
                   "overlap on link ('b0', 'b1'): s2 and s10 both occupy ticks [5, 7)",
                   "overlap on link ('b1', 'z0'): s2 and s10 both occupy ticks [10, 12)"]),
])
def test_validate_plan_matches_the_reference_on_hand_made_plans(phases, expected):
    ids, routes = ("s2", "s10", "s1"), (through_route(NET, 0), through_route(NET, 0),
                                         through_route(NET, 1))
    plan = TrafficPlan(0, {
        sid: build_config(NET, Stream(sid, r.links[0].src, r.links[-1].dst, 100, 500),
                          0, r, phase)
        for sid, r, phase in zip(ids, routes, phases)
    })
    assert assert_same(NET, plan) == expected


@pytest.mark.parametrize("periods", [(997, 1009, 1013), (2147483647, 2147483629, 2147483587)])
def test_validate_plan_refuses_a_link_before_building_its_intervals(periods):
    """The refusal names the reference's link and exact hypercycle, and
    comes before any interval is built: the 3.04e6 intervals of the first
    plan would take over 24 MB as one int64 array."""
    plan = TrafficPlan(0)
    for i, period in enumerate(periods):
        s = Stream(f"s{i}", f"a{i}", f"z{i}", period, 125)
        plan.assignments[s.id] = build_config(NET, s, 0, through_route(NET, i), 0)
    assert assert_same(NET, plan) is None
    tracemalloc.start()
    try:
        with pytest.raises(OracleBoundExceeded, match=r"link \('b0', 'b1'\)"):
            validate_plan(NET, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_validate_plan_matches_the_reference_on_a_benchmark_episode(episode):
    """Every plan of the seed-0 dynamic-grid3x3 episode is legal under both
    oracles, and a copy with one stream's phase shifted gets the same
    problems from both."""
    _, _, net, batches, planner = episode.setup("dynamic-grid3x3", 0, "full")
    rng = Random(0)
    shifted_invalid = 0
    for b in batches:
        delete = [d for d in b.delete if d in planner.state.admitted]
        planner.iterate(StreamBatch(b.iteration, add=b.add, delete=delete))
        plan = planner.state.plan
        assert assert_same(net, plan) == []
        sid = rng.choice(sorted(plan.assignments))
        c = plan.assignments[sid]
        shift = c._replace(phase=c.phase + rng.randrange(1, c.stream.period))
        shifted_invalid += bool(
            assert_same(net, TrafficPlan(plan.iteration, {**plan.assignments, sid: shift}))
        )
    assert len(batches) == 101 and shifted_invalid > 50


def test_validate_plan_folds_a_start_past_int64():
    """A plan file may give any phase: the late start 10**20 + 98 is folded
    as 98 is, and its miss reports the exact arrival."""
    routes = through_route(NET, 0), through_route(NET, 0)
    plan = TrafficPlan(0, {
        sid: build_config(NET, Stream(sid, "a0", "z0", 100, 500), 0, r, phase)
        for sid, r, phase in zip(("s2", "s10"), routes, (10**20 + 98, 0))
    })
    assert assert_same(NET, plan) == [
        "deadline miss: s2 arrives at 100000000000000000113 > 100",
        "overlap on link ('a0', 'b0'): s2 and s10 both occupy ticks [0, 2)",
        "overlap on link ('b0', 'b1'): s2 and s10 both occupy ticks [5, 7)",
        "overlap on link ('b1', 'z0'): s2 and s10 both occupy ticks [10, 12)",
    ]


def test_validate_plan_refuses_a_frame_past_int64_ticks():
    """A plan file may give any size: 10**21 bytes hold a link for 8e18
    ticks, more than an int64 can add its repetitions to."""
    s = Stream("s0", "a0", "z0", 100, 10**21)
    plan = TrafficPlan(0, {"s0": build_config(NET, s, 0, through_route(NET, 0), 0)})
    with pytest.raises(OracleBoundExceeded, match=r"ends at tick \d+ past 2\*\*62"):
        validate_plan(NET, plan)


def wide_plan(size):
    """Periods 499 m and 501 m, m = 4,286,394, on (b0, b1): a hypercycle of
    about 1.07e12 ticks and 1,000 intervals there. s2 repeats s0, so the
    stream ids break ties."""
    m = 2**31 // 501
    plan = TrafficPlan(0)
    for sid, i, k, phase in (("s2", 0, 499, 0), ("s1", 1, 501, 300_000), ("s0", 0, 499, 0)):
        s = Stream(sid, f"a{i}", f"z{i}", k * m, size)
        plan.assignments[sid] = build_config(NET, s, 0, through_route(NET, i), phase)
    return plan


def test_validate_plan_sorts_ticks_too_wide_for_one_key(monkeypatch):
    """With frames of 1.2e6 ticks, (link, start, length, stream) no longer
    fit in one int64 sort key."""
    lexsorts = []
    real = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: lexsorts.append(1) or real(keys))
    assert len(assert_same(NET, wide_plan(150_000_000))) > 3 and lexsorts == [1]


def test_validate_plan_refuses_one_interval_past_the_bound(monkeypatch):
    plan = wide_plan(500)  # 501 + 499 + 501 intervals on (b0, b1)
    for bound, refused in ((1500, True), (1501, False)):
        for module in (solver, validation_oracle):
            monkeypatch.setattr(module, "ORACLE_BOUND", bound)
        assert (assert_same(NET, plan) is None) == refused
