"""``python -m repro trace`` — run one scenario under full telemetry.

Runs one scenario job — the chosen scheme (default PET, training
on-line) on a small traffic-loaded fluid fabric, with the extended chaos
matrix as its ``faults`` unless ``--no-chaos`` — through
:func:`repro.analysis.experiments.run_scenario` with the metrics
registry + tracer enabled, so setup, the measured run, its drain and the
fault events all land on the bus, and writes:

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
from contextlib import nullcontext
from typing import List, Optional

from repro import obs
from repro.analysis.experiments import SCHEMES, ScenarioConfig, run_scenario
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.obs.export import write_csv, write_jsonl
from repro.obs.profile import hot_path_attribution, profile_table, profiled

__all__ = ["trace_main", "build_trace_parser"]

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


def _scenario(args: argparse.Namespace) -> ScenarioConfig:
    """The traced job: no pretraining, the extended fault matrix unless
    ``--no-chaos``."""
    fabric = FluidConfig(n_spine=args.spines, n_leaf=args.leaves,
                         hosts_per_leaf=args.hosts_per_leaf,
                         host_rate_bps=10e9, spine_rate_bps=40e9)
    faults = ()
    if not args.no_chaos:
        from repro.resilience.faults import FaultPlan
        faults = tuple(FaultPlan.extended(
            args.duration, FluidNetwork(fabric).switch_names()).specs)
    # PPO updates every 32 intervals, not the fast profile's 100, so a
    # short trace still reaches ``ppo.update``
    return ScenarioConfig(workload=args.scenario, load=args.load,
                          duration=args.duration, pretrain_intervals=0,
                          seed=args.seed, fluid=fabric, faults=faults,
                          pet={"update_interval": 32})


def _print_summary(intervals, result, registry, tracer) -> None:
    print(f"\nintervals={intervals} "
          f"mean_util={result.mean_utilization:.6f} "
          f"faults={len(result.faults)} spans={len(tracer.spans)}")
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
    cfg = _scenario(args)
    with obs.telemetry() as (registry, tracer), \
            (profiled() if args.profile else nullcontext()) as prof:
        result = run_scenario(args.scheme, cfg)

    # every control-loop tick: the measured run and its drain
    intervals = cfg.intervals + cfg.drain_intervals
    meta = {"scheme": args.scheme, "scenario": args.scenario,
            "seed": args.seed, "duration": args.duration,
            "chaos": not args.no_chaos,
            "intervals": intervals, "faults": len(result.faults)}
    lines = write_jsonl(args.out, tracer, registry, meta=meta)
    print(f"wrote {args.out} ({lines} lines)")
    if args.csv:
        write_csv(args.csv, tracer.spans)
        print(f"wrote {args.csv} ({len(tracer.spans)} spans)")
    _print_summary(intervals, result, registry, tracer)
    if args.profile:
        print("\ncProfile (top 25 by cumulative time):")
        print(profile_table(prof))
    return 0


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(trace_main())
