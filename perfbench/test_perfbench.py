"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import episode  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tsnplan import solver  # noqa: E402
from tsnplan.conflict_graph import Configuration  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_spec_names_the_workloads_and_metrics_the_driver_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_workload_prints_every_metric_and_tracing_keeps_counts(workload):
    counts = {}
    for trace, spec_key in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        counts[trace] = next(line for line in lines if line.startswith("counts: "))
    assert counts[0] == counts[1]


class CorruptingPlanner(solver.Planner):
    """Moves one admitted stream onto another's route and phase, so both
    occupy the same link at the same time."""

    def iterate(self, batch):
        metrics = super().iterate(batch)
        plan = self.state.plan.assignments
        if len(plan) >= 2:
            a, b = sorted(plan)[:2]
            src = plan[a]
            plan[b] = Configuration(plan[b].stream, src.route_index, src.route,
                                    src.phase, src.schedule)
        return metrics


def test_corrupted_plan_makes_the_run_fail():
    _, cfg, net, batches, _ = episode.setup("offline-waxman64", 0, "tiny")
    planner = CorruptingPlanner(net, cfg.expansion_params(), k_routes=cfg.k_routes)
    ep = episode.run_episode(planner, net, batches)
    assert ep["invalid_plans"] == 1
    assert "overlap on link" in ep["problems"][0]
    ep["traced"] = False
    result, code = run.summarize(False, {"episodes": [ep], "errors": [], "peak_rss_mb": 1.0},
                                 [0.1])
    assert result["correct"] is False and result["failed"] == 1
    assert code != 0


def test_tracer_fails_loudly_when_a_layer_function_is_renamed(monkeypatch):
    monkeypatch.delattr(solver, "candidate_routes")
    with pytest.raises(tracing.TraceTargetMissing, match="candidate_routes"):
        with tracing.Tracer().installed():
            pass


def test_tracer_restores_the_layer_functions():
    before = [vars(owner)[attr] for _, owner, attr in tracing.TARGETS]
    with tracing.Tracer().installed():
        assert solver.candidate_routes is not before[0]
    assert [vars(owner)[attr] for _, owner, attr in tracing.TARGETS] == before


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "dynamic-grid3x3", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_probe_scales_to_nominal_speed_and_restores_the_signal_handler():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 5
    assert probe.stolen == pytest.approx(sum(probe.samples))
    half_speed = [2 * speed.NOMINAL_CHUNK_S] * 9 + [100.0]  # one outlier left out
    assert speed.scale(half_speed) == pytest.approx(0.5)
