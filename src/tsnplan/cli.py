"""Command line front end.

Exit codes: 0 success, 2 configuration error (including an unreadable
plan or topology, a topology that `validate_network` rejects, or a plan too
large for the oracle), 3 plan-validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .expansion import SCHEMES, STRATEGIES
from .harness import (
    ConfigError,
    ExperimentConfig,
    PlanValidationError,
    build_scenario,
    build_topology,
    load_plan,
    run_experiment,
)
from .solver import validate_plan
from .timing import OracleBoundExceeded

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVALID_PLAN = 3


def _load_config(args) -> ExperimentConfig:
    flags = {"seed": args.seed, "strategy": args.strategy, "scheme": args.scheme,
             "cps": args.cps, "alpha": args.alpha, "out_dir": args.out}
    cfg = ExperimentConfig.load(args.config)
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _cmd_gen_topology(args) -> int:
    cfg = _load_config(args)
    net = build_topology(cfg)
    out = cfg.out_dir or "."
    os.makedirs(out, exist_ok=True)
    net.save(os.path.join(out, "topology.json"))
    print(f"wrote {os.path.join(out, 'topology.json')}")
    return EXIT_OK


def _cmd_gen_scenario(args) -> int:
    cfg = _load_config(args)
    net = build_topology(cfg)
    batches = build_scenario(cfg, net)
    doc = [
        {
            "iteration": b.iteration,
            "add": [
                {"id": s.id, "src": s.src, "dst": s.dst, "period": s.period, "size": s.size}
                for s in b.add
            ],
            "delete": b.delete,
        }
        for b in batches
    ]
    out = cfg.out_dir or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "scenario.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    metrics, planner = run_experiment(cfg)
    last = metrics[-1]
    total_rej = sum(m.rejected for m in metrics)
    print(
        f"{len(metrics)} iteration(s), {total_rej} rejected stream(s) total, "
        f"final graph {last.vertices} vertices / {last.edges} edges"
    )
    if cfg.out_dir:
        print(f"outputs in {cfg.out_dir}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    net = build_topology(ExperimentConfig({"kind": "file", "path": args.topology}))
    plan = load_plan(args.plan, net)
    problems = validate_plan(net, plan)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return EXIT_INVALID_PLAN
    print(f"plan ok ({len(plan.assignments)} streams)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tsnplan",
        description="Conflict-graph based no-wait traffic planning for TSN",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
        p.add_argument("--strategy", choices=STRATEGIES)
        p.add_argument("--scheme", choices=SCHEMES)
        p.add_argument("--cps", type=int)
        p.add_argument("--alpha", type=int)

    p = sub.add_parser("gen-topology", help="generate and write topology.json")
    common(p)
    p.set_defaults(func=_cmd_gen_topology)

    p = sub.add_parser("gen-scenario", help="generate and write scenario.json")
    common(p)
    p.set_defaults(func=_cmd_gen_scenario)

    p = sub.add_parser("run", help="run the configured experiment")
    common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("validate", help="validate a plan file against a topology file")
    p.add_argument("plan", help="plan.json")
    p.add_argument("topology", help="topology.json")
    p.set_defaults(func=_cmd_validate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except PlanValidationError as e:
        print(f"plan validation failed: {e}", file=sys.stderr)
        return EXIT_INVALID_PLAN
    except OracleBoundExceeded as e:
        print(f"plan too large to validate: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
