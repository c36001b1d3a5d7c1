"""Span tracing of tsnplan's layers from outside the package.

`Tracer.installed()` replaces each layer function in the module or class
that calls it with a wrapper that records a span (name, start, end, parent
span, iteration id), and puts the originals back on exit. Spans are kept in
memory for one episode at a time; `layer_totals` turns them into calls,
inclusive and self time per span name. A layer function that no longer
exists under its expected name raises `TraceTargetMissing`, so a rename in
the program fails the traced run instead of silently reading 0.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

from tsnplan import conflict_graph, expansion, solver, timing
from tsnplan.model import hypercycle

#: (span name, owner, attribute) for every wrapped layer function. An owner
#: is the module or class whose namespace the caller looks the name up in.
TARGETS = [
    ("routing", solver, "candidate_routes"),
    ("timing.occupancy", timing, "link_occupancy"),
    ("timing.occupancy", conflict_graph, "link_occupancy"),
    ("timing.occupancy", solver, "link_occupancy"),
    ("graph.insert", conflict_graph.ConflictGraph, "add_configuration"),
    ("graph.flush", conflict_graph.ConflictGraph, "_flush_removals"),
    ("graph.csr", conflict_graph.ConflictGraph, "csr"),
    ("expansion", solver, "expand"),
    ("expansion.enumerate", expansion, "deterministic_enumeration"),
    ("expansion.enumerate", expansion, "randomized_enumeration"),
    ("expansion.budget_metric", expansion, "budget_homogeneous"),
    ("expansion.budget_metric", expansion, "budget_traffic_volume"),
    ("expansion.budget_metric", expansion, "budget_avg_degree"),
    ("expansion.budget_metric", expansion, "budget_page_rank"),
    ("solver.defensive", solver, "defensive_plan"),
    ("solver.offensive", solver, "offensive_plan"),
    ("validate", solver, "validate_plan"),
]


class TraceTargetMissing(Exception):
    pass


def _original(owner, attr):
    space = vars(owner)
    if attr not in space:
        raise TraceTargetMissing(
            f"{getattr(owner, '__name__', owner)}.{attr} no longer exists; "
            "update TARGETS in perfbench/tracing.py"
        )
    return space[attr]


class Tracer:
    """Spans and boundary counts of one traced episode at a time."""

    def __init__(self):
        # parallel per-span lists, appended to by the wrappers
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.iterations: list[int] = []
        self._open: list[int] = []  # stack of spans not yet ended
        self._plan_ns: dict[str, int] = {}
        self._survivors: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Forget the previous episode."""
        for lst in (self.names, self.starts, self.ends, self.parents, self.iterations,
                    self._open):
            lst.clear()
        self.iteration = -1
        self.counts = dict.fromkeys(
            ("expansion.configs_added", "solver.offensive_wins",
             "solver.offensive_infeasible", "solver.reconfigured",
             "validate.intervals"), 0)
        self._budgets = self._surplus = 0
        self._losing_ns = self._solving_ns = 0

    def span(self, name: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, iterations, open_ = self.parents, self.iterations, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            iterations.append(self.iteration)
            ends.append(0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        return traced

    # -- wrappers that also read counts at the layer boundary ---------------

    def _expand(self, fn):
        def counted(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.counts["expansion.configs_added"] += report.vertices_added
            self._budgets += sum(report.budgets.values())
            self._surplus += sum(report.surplus.values())
            return report

        return counted

    def _timed_plan(self, kind: str, fn):
        def timed(g, survivors, new_ids):
            if kind == "defensive":
                self._survivors = list(survivors)
            t0 = time.perf_counter_ns()
            result = fn(g, survivors, new_ids)
            self._plan_ns[kind] = time.perf_counter_ns() - t0
            if kind == "offensive" and result is None:
                self.counts["solver.offensive_infeasible"] += 1
            return result

        return timed

    def _choose(self, fn):
        def choose(defensive, offensive):
            chosen = fn(defensive, offensive)
            won = offensive is not None and chosen is offensive
            if won:
                self.counts["solver.offensive_wins"] += 1
                self.counts["solver.reconfigured"] += sum(
                    defensive[0][sid] != offensive[0][sid] for sid in self._survivors
                )
            self._losing_ns += self._plan_ns["defensive" if won else "offensive"]
            self._solving_ns += self._plan_ns["defensive"] + self._plan_ns["offensive"]
            return chosen

        return choose

    def _validate(self, fn):
        def counted(net, plan):
            cfgs = plan.assignments.values()
            if cfgs:
                h = hypercycle(c.stream.period for c in cfgs)
                self.counts["validate.intervals"] += sum(
                    c.route.hop_count * (h // c.stream.period) for c in cfgs
                )
            return fn(net, plan)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        extra = {
            (solver, "expand"): self._expand,
            (solver, "defensive_plan"): lambda f: self._timed_plan("defensive", f),
            (solver, "offensive_plan"): lambda f: self._timed_plan("offensive", f),
            (solver, "validate_plan"): self._validate,
        }
        saved = [(owner, attr, _original(owner, attr)) for _, owner, attr in TARGETS]
        saved.append((solver, "choose_plan", _original(solver, "choose_plan")))
        try:
            for (name, owner, attr), (_, _, orig) in zip(TARGETS, saved):
                inner = orig
                if (owner, attr) in extra:
                    inner = extra[(owner, attr)](orig)
                setattr(owner, attr, self.span(name, inner))
            solver.choose_plan = self._choose(saved[-1][2])
            yield self
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms (duration minus
        the time its child spans cover)."""
        n = len(self.names)
        child_ns = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_ns[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            t = out.setdefault(self.names[i], {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                               "top_ms": 0.0})
            t["calls"] += 1
            t["ms"] += dur / 1e6
            t["self_ms"] += (dur - child_ns[i]) / 1e6
            if self.parents[i] < 0:
                t["top_ms"] += dur / 1e6
        return out

    def surplus_frac(self) -> float:
        return self._surplus / self._budgets if self._budgets else 0.0

    def wasted_frac(self) -> float:
        return self._losing_ns / self._solving_ns if self._solving_ns else 0.0

    def write_spans(self, path) -> None:
        """One JSON object per span, times in ns from the episode's first span."""
        t0 = self.starts[0] if self.starts else 0
        with open(path, "w") as f:
            for i in range(len(self.names)):
                f.write(json.dumps({
                    "id": i, "name": self.names[i], "iteration": self.iterations[i],
                    "parent": self.parents[i], "start_ns": self.starts[i] - t0,
                    "end_ns": self.ends[i] - t0,
                }) + "\n")
