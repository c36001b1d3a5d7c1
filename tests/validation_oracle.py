"""Reference plan oracle for the validation tests.

`oracle_validate_plan` is `tsnplan.solver.validate_plan` as it ran before
the sweep became array work: per link, in order of the link's first
appearance, every interval is built as a Python tuple over the link's
hypercycle, folded into [0, h) when some stream is late, sorted and compared
with its successor. It is slow but obviously right, which makes it the
oracle `validate_plan` is checked against: the same problems, in the same
words and order, and the same `OracleBoundExceeded`.
"""

from __future__ import annotations

from tsnplan.model import hypercycle
from tsnplan.timing import ORACLE_BOUND, OracleBoundExceeded, link_occupancy


def oracle_validate_plan(net, plan) -> list[str]:
    problems: list[str] = []
    per_link: dict[tuple[str, str], list[tuple[int, int, str, int]]] = {}
    late = False
    for sid, cfg in plan.assignments.items():
        stream = cfg.stream
        sched = link_occupancy(net, stream, cfg.route, cfg.phase)
        if sched.arrival > stream.period:
            late = True
            problems.append(
                f"deadline miss: {sid} arrives at {sched.arrival} > {stream.period}"
            )
        for key, s, e in sched.entries:
            per_link.setdefault(key, []).append((s, e, sid, stream.period))
    for key, entries in per_link.items():
        h = hypercycle(period for _, _, _, period in entries)
        count = sum(h // period for _, _, _, period in entries)
        if count > ORACLE_BOUND:
            raise OracleBoundExceeded(
                f"link {key}: {count} intervals over hypercycle {h} exceed "
                f"oracle bound {ORACLE_BOUND}"
            )
        intervals = [
            (s + off, e + off, sid)
            for s, e, sid, period in entries
            for off in range(0, h, period)
        ]
        if late:  # fold each interval into [0, h), splitting one that crosses h
            folded = []
            for s, e, sid in intervals:
                s0 = s % h
                e0 = s0 + e - s
                folded.append((s0, min(e0, h), sid))
                if e0 > h:
                    folded.append((0, e0 - h, sid))
            intervals = folded
        intervals.sort()
        for (s1, e1, id1), (s2, e2, id2) in zip(intervals, intervals[1:]):
            if s2 < e1:
                problems.append(
                    f"overlap on link {key}: {id1} and {id2} "
                    f"both occupy ticks [{s2}, {min(e1, e2)})"
                )
    return problems
