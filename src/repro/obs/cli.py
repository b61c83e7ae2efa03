"""``python -m repro trace`` — run one scenario under full telemetry.

Builds a traffic-loaded fluid fabric, drives the chosen scheme (default
PET, training on-line) through the Δt control loop with the metrics
registry + tracer enabled, optionally injects the extended chaos matrix
(default on, so fault events appear on the bus), and writes:

- ``--out`` (default ``trace.jsonl``) — the JSONL trace: meta line,
  every span/event, one line per metric series (docs/OBSERVABILITY.md
  documents the schema);
- optional ``--csv`` — the same spans flattened to CSV;
- stdout — a per-stage hot-path attribution table plus the metrics
  summary.

Usage::

    python -m repro trace --scenario websearch --seed 0
    python -m repro trace --scenario datamining --duration 0.05 \\
        --no-chaos --csv trace.csv --profile
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from repro import obs
from repro.analysis.experiments import (SCHEMES, ScenarioConfig,
                                        _load_traffic, build_scheme)
from repro.core.training import run_control_loop
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.obs.export import write_csv, write_jsonl
from repro.obs.profile import hot_path_attribution, profile_table, profiled

__all__ = ["trace_main", "build_trace_parser", "run_traced_scenario"]

DEFAULT_OUT = "trace.jsonl"


def build_trace_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro trace",
        description="run one scenario under full telemetry and emit a "
                    "JSONL trace + metrics summary")
    p.add_argument("--scenario", "--workload", dest="scenario",
                   default="websearch", choices=["websearch", "datamining"],
                   help="traffic workload driving the run")
    p.add_argument("--scheme", default="pet", choices=list(SCHEMES))
    p.add_argument("--load", type=float, default=0.6)
    p.add_argument("--duration", type=float, default=0.1,
                   help="seconds of virtual time to trace")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-chaos", action="store_true",
                   help="skip fault injection (trace then carries no "
                        "fault events)")
    p.add_argument("--out", default=DEFAULT_OUT,
                   help=f"JSONL trace path (default {DEFAULT_OUT})")
    p.add_argument("--csv", default=None,
                   help="also write the spans as CSV to this path")
    p.add_argument("--profile", action="store_true",
                   help="additionally cProfile the loop and print the "
                        "top functions")
    p.add_argument("--hosts-per-leaf", type=int, default=4)
    p.add_argument("--leaves", type=int, default=2)
    p.add_argument("--spines", type=int, default=2)
    return p


def run_traced_scenario(args: argparse.Namespace):
    """Drive the traced control loop; returns (result, registry, tracer)."""
    fabric = FluidConfig(n_spine=args.spines, n_leaf=args.leaves,
                         hosts_per_leaf=args.hosts_per_leaf,
                         host_rate_bps=10e9, spine_rate_bps=40e9)
    cfg = ScenarioConfig(workload=args.scenario, load=args.load,
                         duration=args.duration, pretrain_intervals=0,
                         seed=args.seed, fluid=fabric)
    net = FluidNetwork(cfg.fluid, seed=cfg.seed)
    _load_traffic(net, cfg, cfg.seed + 1)
    controller = build_scheme(args.scheme, net.switch_names(), seed=cfg.seed)
    controller.set_training(True)

    chaos = None
    driven = controller
    if not args.no_chaos:
        from repro.resilience.faults import ChaosInjector, FaultPlan
        from repro.resilience.guard import ResilientController
        from repro.resilience.log import FaultLog
        log = FaultLog()
        plan = FaultPlan.extended(cfg.duration, net.switch_names())
        chaos = ChaosInjector(net, plan,
                              rng=np.random.default_rng(cfg.seed), log=log)
        driven = ResilientController(chaos.wrap(controller),
                                     net.switch_names(), log=log)
        chaos.arm()

    registry, tracer = obs.enable()
    intervals = max(int(round(cfg.duration / cfg.delta_t)), 1)
    try:
        result = run_control_loop(net, driven, intervals=intervals,
                                  delta_t=cfg.delta_t, chaos=chaos)
    finally:
        if chaos is not None:
            chaos.disarm()
        obs.disable()
    return result, registry, tracer


def _print_summary(result, registry, tracer) -> None:
    print(f"\nintervals={result.intervals} "
          f"mean_reward={result.mean_reward:.6f} "
          f"faults={result.fault_count} spans={len(tracer.spans)}")
    attribution = hot_path_attribution(tracer)
    if attribution:
        print(f"\n{'stage':<20} {'count':>7} {'total_s':>10} {'mean_ms':>10}")
        for name, row in sorted(attribution.items(),
                                key=lambda kv: -kv[1]["total_s"]):
            print(f"{name:<20} {row['count']:>7d} {row['total_s']:>10.4f} "
                  f"{row['mean_s'] * 1e3:>10.4f}")
    print("\nmetrics summary:")
    for series, data in registry.summary().items():
        print(f"  {series}: {json.dumps(data, sort_keys=True)}")


def trace_main(argv: Optional[List[str]] = None) -> int:
    args = build_trace_parser().parse_args(argv)
    print(f"trace scheme={args.scheme} scenario={args.scenario} "
          f"seed={args.seed} duration={args.duration * 1e3:.0f}ms "
          f"chaos={'off' if args.no_chaos else 'on'}", file=sys.stderr)
    if args.profile:
        with profiled() as prof:
            result, registry, tracer = run_traced_scenario(args)
    else:
        result, registry, tracer = run_traced_scenario(args)

    meta = {"scheme": args.scheme, "scenario": args.scenario,
            "seed": args.seed, "duration": args.duration,
            "chaos": not args.no_chaos,
            "intervals": result.intervals, "faults": result.fault_count}
    lines = write_jsonl(args.out, tracer, registry, meta=meta)
    print(f"wrote {args.out} ({lines} lines)")
    if args.csv:
        write_csv(args.csv, tracer.spans)
        print(f"wrote {args.csv} ({len(tracer.spans)} spans)")
    _print_summary(result, registry, tracer)
    if args.profile:
        print("\ncProfile (top 25 by cumulative time):")
        print(profile_table(prof))
    return 0


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(trace_main())
