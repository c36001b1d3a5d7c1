#!/usr/bin/env python3
"""tsnplan benchmark driver.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It generates the workload from the seed, plans it over and over for S
seconds, re-checks every plan with the oracle and prints, as its last line,
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones, with
`--trace 1` the per-layer ones (see perfbench/README.md). The exit code is 0
only when every plan passed the oracle and every consistency check held.

Each measurement runs in a child process (perfbench/episode.py) that loads
tsnplan from this checkout's `src/`, so the child's peak RSS is the
workload's own. Set-up is timed in several fresh processes and reported as
the median. With `--trace 0`, times are scaled to the nominal machine
speed of perfbench/speed.py; the times as measured are printed on the
`raw` lines. `--size tiny` runs a small version of each workload, for the
benchmark's self-tests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from workloads import SIZES, WORKLOADS  # noqa: E402

#: set-up is timed in the measuring process plus this many set-up-only ones
EXTRA_SETUP_PROCESSES = 4
#: whole-run limit; a child still running then is killed
TIME_LIMIT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "update_ms_p50": "ms",
    "update_ms_p90": "ms",
    "admitted_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "routing.calls": "count",
    "routing.ms": "ms",
    "timing.occupancy.calls": "count",
    "timing.occupancy.ms": "ms",
    "graph.insert.calls": "count",
    "graph.insert.ms": "ms",
    "graph.insert.us_per_vertex": "us",
    "graph.flush.ms": "ms",
    "graph.csr.calls": "count",
    "graph.csr.ms": "ms",
    "graph.vertices": "count",
    "graph.edges": "count",
    "graph.slots": "count",
    "graph.live_slot_frac": "frac",
    "expansion.ms": "ms",
    "expansion.enumerate.ms": "ms",
    "expansion.budget_metric.ms": "ms",
    "expansion.configs_added": "count",
    "expansion.surplus_frac": "frac",
    "solver.defensive.ms": "ms",
    "solver.offensive.ms": "ms",
    "solver.offensive_wins": "count",
    "solver.offensive_infeasible": "count",
    "solver.reconfigured": "count",
    "solver.wasted_frac": "frac",
    "validate.ms": "ms",
    "validate.intervals": "count",
    "trace.coverage_frac": "frac",
    "trace.overhead_frac": "frac",
}


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run perfbench/episode.py with `args`; return the JSON it printed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "episode.py"), *args],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child process exceeded {timeout:.0f} s and was killed") from None
    if proc.returncode != 0:
        raise ChildFailed(f"child process exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed("child process printed no result")
    return json.loads(lines[-1])


def summarize(trace: bool, run: dict, setup_samples: list[float]) -> tuple[dict, int]:
    """The result object and the exit code of one benchmark run."""
    episodes = run["episodes"]
    plain = [e for e in episodes if not e["traced"]]
    traced = [e for e in episodes if e["traced"]]
    failed = sum(e["invalid_plans"] for e in episodes)
    attempted = sum(e["counts"]["batches"] for e in episodes)
    correct = failed == 0 and not run["errors"]
    median = statistics.median
    if trace:
        values = {
            name: (statistics.median_low if unit == "count" else median)(
                e["layers"][name] for e in traced)
            for name, unit in PER_LAYER_UNITS.items() if name != "trace.overhead_frac"
        }
        values["trace.overhead_frac"] = (
            median(e["wall_s"] for e in traced) / median(e["wall_s"] for e in plain) - 1
        )
        units = PER_LAYER_UNITS
    else:
        counts = episodes[0]["counts"]
        values = {
            "setup_s": median(setup_samples),
            "wall_s": median(e["wall_s"] for e in plain),
            "update_ms_p50": median(e["update_ms_p50"] for e in plain),
            "update_ms_p90": median(e["update_ms_p90"] for e in plain),
            "admitted_frac": 1 - counts["rejected"] / counts["offered"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, 0 if correct else 1


def report(args, run: dict, setups: list[dict]) -> None:
    """Human-readable lines printed before the result."""
    episodes = run["episodes"]
    c = episodes[0]["counts"]
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"(stresses {WORKLOADS[args.workload]['stresses']}): "
          + json.dumps(run["config"], sort_keys=True))
    print("counts: " + " ".join(f"{k}={v}" for k, v in c.items()))
    print(f"episodes: {len(episodes)} ({sum(e['traced'] for e in episodes)} traced); "
          f"update samples per episode: {episodes[0]['update_samples']}; "
          f"set-up samples: {len(setups)}")
    print("setup_s per process: " + " ".join(f"{s['setup_s']:.4f}" for s in setups))
    print("raw setup_s per process: " + " ".join(f"{s['raw_setup_s']:.4f}" for s in setups))
    print("wall_s per episode: " + " ".join(
        f"{e['wall_s']:.3f}{'T' * e['traced']}" for e in episodes))
    print("raw wall_s per episode: " + " ".join(f"{e['raw_wall_s']:.3f}" for e in episodes))
    traced = [e for e in episodes if e["traced"]]
    if traced:
        names = sorted(traced[0]["self_share"], key=lambda n: -traced[0]["self_share"][n])
        print("self time share of traced wall_s (median over traced episodes):")
        for name in names:
            share = statistics.median(e["self_share"].get(name, 0.0) for e in traced)
            print(f"  {name:26s} {100 * share:6.2f}%")
        print(f"spans of the last traced episode: {run['spans_file']}")
    for e in episodes:
        for p in e["problems"]:
            print(f"INVALID PLAN {p}")
    for err in run["errors"]:
        print(f"CHECK FAILED {err}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tsnplan" / "__init__.py").is_file():
        print(f"error: no tsnplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    try:
        setups = []
        if not args.trace:
            for _ in range(EXTRA_SETUP_PROCESSES):
                setups.append(run_child(["setup", *common], deadline))
        run = run_child(["measure", *common, "--seconds", str(args.seconds),
                         "--trace", str(args.trace)], deadline)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setups.append(run)
    setup_samples = [s["setup_s"] for s in setups]
    result, code = summarize(bool(args.trace), run, setup_samples)
    report(args, run, setups)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
