"""Command-line interface: run one scenario and print the paper metrics.

Examples
--------
Compare PET with the DCQCN static setting at 60% Web Search load::

    python -m repro --scheme pet secn1 --workload websearch --load 0.6

Quick smoke run::

    python -m repro --scheme secn1 --duration 0.02 --pretrain 0

Multi-pod fat-tree substrate (docs/TOPOLOGIES.md)::

    python -m repro --scheme secn1 --topology fattree --pods 4 \
        --duration 0.02 --pretrain 0

Chaos/robustness benchmark (fault injection + resilience guard)::

    python -m repro chaos --quick --seed 0

Fan the scheme comparison across worker processes (docs/PARALLEL.md)::

    python -m repro --scheme pet secn1 secn2 --workers 3

Run one scenario under full telemetry and emit a JSONL trace plus a
metrics summary (docs/OBSERVABILITY.md)::

    python -m repro trace --scenario websearch --seed 0

Static analysis (docs/DEVTOOLS.md): every PET rule — per-module
PET001–PET007 and whole-program PET101/102/104/105 — in one command,
gated on findings not in the checked-in baseline::

    python -m repro devtools src --baseline ANALYZE_BASELINE.json

Serve a supervised control plane over HTTP with shadow/canary policy
rollout (docs/SERVING.md), or run its CI smoke check::

    python -m repro serve --port 8321
    python -m repro serve --smoke --out serve_trace.jsonl
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.experiments import (SCHEMES, ScenarioConfig,
                                        run_scenario_grid)
from repro.analysis.report import format_result_rows
from repro.devtools import sanitize
from repro.netsim.fluid import FluidConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="PET reproduction — run an ECN-tuning scenario")
    p.add_argument("--scheme", nargs="+", default=["pet", "secn1"],
                   choices=list(SCHEMES), help="schemes to compare")
    p.add_argument("--workload", default="websearch",
                   choices=["websearch", "datamining"])
    p.add_argument("--load", type=float, default=0.6,
                   help="offered load as a fraction of host capacity")
    p.add_argument("--duration", type=float, default=0.1,
                   help="measured seconds of virtual time")
    p.add_argument("--pretrain", type=int, default=1500,
                   help="offline pre-training intervals (0 = none)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-incast", action="store_true",
                   help="disable the many-to-one incast overlay")
    p.add_argument("--topology", default="leafspine",
                   choices=["leafspine", "fattree"],
                   help="fabric shape: single-pod leaf-spine (fluid "
                        "model) or multi-pod fat-tree (fluid model; "
                        "docs/TOPOLOGIES.md)")
    p.add_argument("--hosts-per-leaf", type=int, default=8)
    p.add_argument("--leaves", type=int, default=4)
    p.add_argument("--spines", type=int, default=2)
    p.add_argument("--pods", type=int, default=4,
                   help="fat-tree pod count (--topology fattree)")
    p.add_argument("--sanitize", action="store_true",
                   help="enable the runtime invariant sanitizer "
                        "(repro.devtools.sanitize) for this run")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the scheme fan-out "
                        "(1 = in-process, compatible schemes batched)")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch and run; any crash becomes a nonzero exit, not a 0.

    Subcommand and scenario failures are caught here so a crashed run
    reports exit code 1 with a one-line error on stderr — automation
    gating on ``$?`` must never see success from a dead run.
    ``SystemExit`` (argparse) and ``KeyboardInterrupt`` pass through.
    """
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return _dispatch(argv)
    except Exception as exc:   # noqa: BLE001 — exit-code contract
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _dispatch(argv: List[str]) -> int:
    if argv and argv[0] == "chaos":
        from repro.resilience.cli import chaos_main
        return chaos_main(argv[1:])
    if argv and argv[0] == "trace":
        from repro.obs.cli import trace_main
        return trace_main(argv[1:])
    if argv and argv[0] == "devtools":
        from repro.devtools.cli import devtools_main
        return devtools_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.cli import serve_main
        return serve_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if len(set(args.scheme)) < len(args.scheme):
        parser.error("--scheme: each scheme may be given once")
    if args.sanitize or sanitize.enabled_from_env():
        sanitize.enable()
    common = dict(workload=args.workload, load=args.load,
                  duration=args.duration,
                  pretrain_intervals=args.pretrain,
                  incast=not args.no_incast, seed=args.seed)
    if args.topology == "fattree":
        from repro.netsim.fattree import FatTreeConfig
        fabric = FatTreeConfig(n_pods=args.pods,
                               hosts_per_edge=args.hosts_per_leaf,
                               host_rate_bps=10e9, agg_rate_bps=40e9,
                               core_rate_bps=40e9)
        cfg = ScenarioConfig(simulator="fluid_shard", fattree=fabric,
                             **common)
    else:
        fabric = FluidConfig(n_spine=args.spines, n_leaf=args.leaves,
                             hosts_per_leaf=args.hosts_per_leaf,
                             host_rate_bps=10e9, spine_rate_bps=40e9)
        cfg = ScenarioConfig(fluid=fabric, **common)
    print(f"running {' '.join(args.scheme)} "
          f"({args.workload} @ {args.load:.0%}, "
          f"{args.duration * 1e3:.0f} ms) ...", file=sys.stderr)
    results = run_scenario_grid([(s, cfg) for s in args.scheme],
                                workers=args.workers)
    rows = {s: r.summary_row() for s, r in zip(args.scheme, results)}
    print()
    print(format_result_rows(rows, [
        "overall_avg_fct", "mice_avg_fct", "mice_p99_fct",
        "elephant_avg_fct", "queue_mean_kb", "latency_avg", "utilization"]))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
