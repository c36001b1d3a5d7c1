import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsnplan
from tsnplan.cli import main
from tsnplan.harness import (
    METRICS_HEADER,
    ConfigError,
    ExperimentConfig,
    build_scenario,
    build_topology,
    gen_grid,
    gen_random,
    gen_ring,
    gen_streams,
    gen_waxman,
    load_plan,
    run_experiment,
    write_metrics_csv,
)
from tsnplan.model import validate_network
from tsnplan.solver import validate_plan


def bridge_degree(net, b):
    return sum(1 for l in net.out_links(b) if net.is_bridge(l.dst))


def test_gen_random_complete_at_p1():
    net = gen_random(3, 1.0, seed=0)
    assert len(net.bridges()) == 3 and len(net.end_devices()) == 3
    for b in net.bridges():
        assert bridge_degree(net, b) == 2
    assert validate_network(net) == []


def test_gen_random_two_bridges():
    net = gen_random(2, 0.5, seed=1)
    assert bridge_degree(net, "b0") == 1


def test_gen_random_determinism():
    a = gen_random(8, 0.3, seed=7)
    b = gen_random(8, 0.3, seed=7)
    assert a.to_dict() == b.to_dict()
    assert gen_random(8, 0.3, seed=8).to_dict() != a.to_dict()


def test_gen_random_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_random(1, 0.5, 0)
    with pytest.raises(ValueError):
        gen_random(4, 0.0, 0)


def test_gen_waxman_edge_probability_grows_with_b():
    # raising b raises every pairwise edge probability; at the same seed the
    # denser parameterization can only gain bridge cables
    dense = gen_waxman(8, a=1.0, b=1.0, seed=0)
    sparse = gen_waxman(8, a=1.0, b=0.3, seed=0)

    def cables(net):
        return sum(
            1 for k in net.links if net.is_bridge(k[0]) and net.is_bridge(k[1])
        )

    assert cables(dense) >= cables(sparse) >= 2 * 7  # connected minimum
    assert validate_network(dense) == []


def test_gen_waxman_determinism_and_speed():
    a = gen_waxman(49, seed=3)
    b = gen_waxman(49, seed=3)
    assert a.to_dict() == b.to_dict()
    assert len(a.bridges()) == 49
    assert validate_network(a) == []


def test_gen_ring():
    net = gen_ring(4)
    bb = [k for k in net.links if net.is_bridge(k[0]) and net.is_bridge(k[1])]
    assert len(bb) == 8  # 4 cables as directed pairs
    assert all(bridge_degree(net, b) == 2 for b in net.bridges())
    tri = gen_ring(3)
    assert all(bridge_degree(tri, b) == 2 for b in tri.bridges())
    with pytest.raises(ValueError):
        gen_ring(2)


def test_gen_grid_degrees():
    g22 = gen_grid(2, 2)
    assert all(bridge_degree(g22, b) == 2 for b in g22.bridges())
    g33 = gen_grid(3, 3)
    degs = sorted(bridge_degree(g33, b) for b in g33.bridges())
    assert degs == [2, 2, 2, 2, 3, 3, 3, 3, 4]
    g77 = gen_grid(7, 7)
    assert len(g77.bridges()) == 49
    bb = [k for k in g77.links if g77.is_bridge(k[0]) and g77.is_bridge(k[1])]
    assert len(bb) == 2 * 84  # 7*6*2 undirected cables


def test_gen_streams_sets_and_determinism():
    net = gen_ring(6)
    sizes = [125, 250, 500, 750, 1000, 1500]
    periods = [250, 500, 1000, 2000]
    streams = gen_streams(net, 40, sizes, periods, seed=5)
    assert len(streams) == 40
    assert all(s.size in sizes and s.period in periods for s in streams)
    assert all(s.src != s.dst for s in streams)
    assert gen_streams(net, 40, sizes, periods, seed=5) == streams
    assert gen_streams(net, 0, sizes, periods, seed=5) == []


def test_config_from_dict_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"topology": {"kind": "ring", "n": 4}, "bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.load("/nonexistent/config.json")
    cfg = ExperimentConfig.from_dict({"topology": {"kind": "ring", "n": 4}})
    assert cfg.cps == 50 and cfg.scheme == "randomized"


def test_config_alpha_clamped_to_cps():
    cfg = ExperimentConfig(topology={"kind": "ring", "n": 4}, cps=2, alpha=5)
    assert cfg.expansion_params().alpha == 2


def test_build_topology_kinds(tmp_path):
    for topo in (
        {"kind": "ring", "n": 5},
        {"kind": "grid", "rows": 2, "cols": 3},
        {"kind": "random", "n": 5, "p": 0.5},
        {"kind": "waxman", "n": 8},
    ):
        net = build_topology(ExperimentConfig(topology=topo, seed=1))
        assert validate_network(net) == []
    net.save(tmp_path / "t.json")
    loaded = build_topology(
        ExperimentConfig(topology={"kind": "file", "path": str(tmp_path / "t.json")})
    )
    assert loaded.to_dict() == net.to_dict()
    with pytest.raises(ConfigError):
        build_topology(ExperimentConfig(topology={"kind": "bogus"}))
    with pytest.raises(ConfigError):
        build_topology(ExperimentConfig(topology={"kind": "grid", "rows": 2}))


def test_build_scenario_shapes():
    cfg = ExperimentConfig(
        topology={"kind": "ring", "n": 4},
        initial_streams=10,
        iterations=3,
        add_per_iteration=4,
        del_per_iteration=2,
        seed=2,
    )
    net = build_topology(cfg)
    batches = build_scenario(cfg, net)
    assert [b.iteration for b in batches] == [0, 1, 2, 3]
    assert len(batches[0].add) == 10 and not batches[0].delete
    for b in batches[1:]:
        assert len(b.add) == 4 and len(b.delete) == 2
    ids = [s.id for b in batches for s in b.add]
    assert len(set(ids)) == len(ids)


def small_cfg(**kw):
    base = dict(
        topology={"kind": "ring", "n": 4},
        initial_streams=12,
        iterations=2,
        add_per_iteration=4,
        del_per_iteration=3,
        cps=10,
        seed=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_metrics_and_outputs(tmp_path):
    cfg = small_cfg(out_dir=str(tmp_path / "out"))
    metrics, planner = run_experiment(cfg)
    assert len(metrics) == 3
    assert validate_plan(planner.net, planner.state.plan) == []
    with open(tmp_path / "out" / "metrics.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == METRICS_HEADER
    assert len(rows) == 4
    assert rows[1][0] == "0" and rows[1][2] == "randomized"
    # plan round-trips through the serialized form and still validates
    net = build_topology(cfg)
    plan = load_plan(tmp_path / "out" / "plan.json", net)
    assert validate_plan(net, plan) == []
    assert set(plan.assignments) == set(planner.state.plan.assignments)


def test_metrics_csv_format(tmp_path):
    cfg = small_cfg()
    metrics, _ = run_experiment(cfg)
    path = tmp_path / "m.csv"
    write_metrics_csv(path, metrics)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    for row in rows:
        int(row["iteration"]), int(row["vertices"]), int(row["edges"])
        float(row["expansion_ms"]), float(row["solving_ms"]), float(row["total_ms"])
        assert row["strategy"] in ("homogeneous", "traffic-volume", "avg-degree",
                                   "page-rank")


def test_metrics_header_matches_readme():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = readme.split("`metrics.csv` has one row per iteration:")[1]
    assert documented.split("```")[1].strip() == ",".join(METRICS_HEADER)


def test_run_experiment_determinism():
    m1, _ = run_experiment(small_cfg())
    m2, _ = run_experiment(small_cfg())
    strip = [(m.iteration, m.rejected, m.vertices, m.edges) for m in m1]
    assert strip == [(m.iteration, m.rejected, m.vertices, m.edges) for m in m2]


# -- CLI -----------------------------------------------------------------


def write_cfg(tmp_path, **kw):
    doc = dict(topology={"kind": "ring", "n": 4}, initial_streams=8,
               iterations=1, add_per_iteration=3, del_per_iteration=2,
               cps=8, seed=4)
    doc.update(kw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_gen_topology_and_scenario(tmp_path):
    cfgp = write_cfg(tmp_path)
    out = str(tmp_path / "o1")
    assert main(["gen-topology", "--config", cfgp, "--out", out]) == 0
    assert (tmp_path / "o1" / "topology.json").exists()
    assert main(["gen-scenario", "--config", cfgp, "--out", out]) == 0
    doc = json.loads((tmp_path / "o1" / "scenario.json").read_text())
    assert [b["iteration"] for b in doc] == [0, 1]


def test_cli_run_and_validate(tmp_path, capsys):
    cfgp = write_cfg(tmp_path)
    out = tmp_path / "o2"
    assert main(["run", "--config", cfgp, "--out", str(out)]) == 0
    for name in ("metrics.csv", "plan.json", "topology.json"):
        assert (out / name).exists()
    assert main(["validate", str(out / "plan.json"), str(out / "topology.json")]) == 0
    assert "plan ok" in capsys.readouterr().out


def test_cli_validate_detects_corrupt_plan(tmp_path, capsys):
    cfgp = write_cfg(tmp_path)
    out = tmp_path / "o3"
    assert main(["run", "--config", cfgp, "--out", str(out)]) == 0
    doc = json.loads((out / "plan.json").read_text())
    sids = sorted(doc["streams"])
    assert len(sids) >= 2
    # force two streams into the exact same route and phase
    a, b = doc["streams"][sids[0]], doc["streams"][sids[1]]
    b.update({k: a[k] for k in ("nodes", "phase", "route_index", "period", "size")})
    b["nodes"] = list(a["nodes"])
    (out / "plan.json").write_text(json.dumps(doc))
    rc = main(["validate", str(out / "plan.json"), str(out / "topology.json")])
    assert rc == 3
    assert "overlap" in capsys.readouterr().err


def run_and_load_plan(tmp_path, name):
    out = tmp_path / name
    assert main(["run", "--config", write_cfg(tmp_path), "--out", str(out)]) == 0
    return out, json.loads((out / "plan.json").read_text())


def test_cli_validate_reports_a_late_stream(tmp_path, capsys):
    out, doc = run_and_load_plan(tmp_path, "late")
    sid = sorted(doc["streams"])[0]
    spec = doc["streams"][sid]
    spec["phase"] = spec["period"] - 1  # the frame now arrives after its deadline
    (out / "plan.json").write_text(json.dumps(doc))
    rc = main(["validate", str(out / "plan.json"), str(out / "topology.json")])
    assert rc == 3
    assert f"deadline miss: {sid}" in capsys.readouterr().err


def test_cli_validate_rejects_a_route_over_a_missing_link(tmp_path, capsys):
    out, doc = run_and_load_plan(tmp_path, "nolink")
    spec = doc["streams"][sorted(doc["streams"])[0]]
    spec["nodes"] = [spec["nodes"][0], "nowhere", spec["nodes"][-1]]
    (out / "plan.json").write_text(json.dumps(doc))
    rc = main(["validate", str(out / "plan.json"), str(out / "topology.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nowhere" in err and len(err.strip().splitlines()) == 1


def test_cli_validate_reports_missing_files(tmp_path, capsys):
    out, _ = run_and_load_plan(tmp_path, "missing")
    for plan, topology in ((tmp_path / "absent.json", out / "topology.json"),
                           (out / "plan.json", tmp_path / "absent.json")):
        assert main(["validate", str(plan), str(topology)]) == 2
        err = capsys.readouterr().err
        assert "absent.json" in err and len(err.strip().splitlines()) == 1


def test_cli_validate_refuses_a_plan_too_large_for_the_oracle(tmp_path, capsys):
    out, doc = run_and_load_plan(tmp_path, "bound")
    spec = doc["streams"][sorted(doc["streams"])[0]]
    # coprime periods on one route: about 3.04e6 intervals on each of its links
    doc["streams"] = {
        f"x{period}": {**spec, "phase": 0, "period": period, "size": 125}
        for period in (997, 1009, 1013)
    }
    (out / "plan.json").write_text(json.dumps(doc))
    rc = main(["validate", str(out / "plan.json"), str(out / "topology.json")])
    assert rc == 2
    assert "hypercycle 1019050649" in capsys.readouterr().err


def test_cli_run_aborts_on_invalid_plan(tmp_path, monkeypatch):
    import tsnplan.harness as harness

    monkeypatch.setattr(harness, "validate_plan", lambda net, plan: ["forced failure"])
    rc = main(["run", "--config", write_cfg(tmp_path)])
    assert rc == 3


def test_cli_config_errors(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"topology": {"kind": "bogus"}}))
    assert main(["run", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({"topology": {"kind": "ring", "n": 4}, "cps": 0}))
    assert main(["run", "--config", str(bad)]) == 2


def test_cli_run_refuses_periods_of_2_pow_31_and_more(tmp_path, capsys):
    # the lcm of these periods wraps int64 in the conflict test
    bad = write_cfg(tmp_path, periods=[3500000017, 3500000011])
    assert main(["run", "--config", bad]) == 2
    err = capsys.readouterr().err
    assert "2**31" in err and len(err.strip().splitlines()) == 1
    with pytest.raises(ConfigError):
        ExperimentConfig(topology={"kind": "ring", "n": 4}, periods=[250, 2**31])


def test_cli_validate_refuses_a_period_of_2_pow_31(tmp_path, capsys):
    out, doc = run_and_load_plan(tmp_path, "period")
    doc["streams"][sorted(doc["streams"])[0]]["period"] = 2**31
    (out / "plan.json").write_text(json.dumps(doc))
    assert main(["validate", str(out / "plan.json"), str(out / "topology.json")]) == 2
    err = capsys.readouterr().err
    assert "2**31" in err and len(err.strip().splitlines()) == 1


def test_cli_overrides(tmp_path):
    cfgp = write_cfg(tmp_path, iterations=0, initial_streams=6)
    out = tmp_path / "o4"
    rc = main([
        "run", "--config", cfgp, "--out", str(out), "--scheme", "deterministic",
        "--strategy", "traffic-volume", "--cps", "6", "--seed", "9",
    ])
    assert rc == 0
    with open(out / "metrics.csv", newline="") as f:
        row = list(csv.DictReader(f))[0]
    assert row["scheme"] == "deterministic"
    assert row["strategy"] == "traffic-volume"
    assert row["cps"] == "6"


def test_import_loads_no_scipy():
    # numpy is the only array dependency; a scipy import costs ~0.2 s per run
    src = str(Path(tsnplan.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import tsnplan, tsnplan.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.strip() == "[]"
