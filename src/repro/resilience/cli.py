"""``python -m repro chaos`` — the chaos/robustness benchmark.

Runs the paper's Fig. 7 link-failure scenario (``--matrix fig7``) or the
extended fault matrix (``--matrix extended``: link failure + capacity
degradation + telemetry blackout + observation corruption + agent crash
+ unreliable ECN application) against one or more schemes.  Each scheme
is one scenario job whose ``faults`` are the matrix, run by
:func:`repro.analysis.experiments.run_scenario_grid`, which drives every
controller inside the graceful-degradation guard.  It reports:

- the full structured fault log (injections and guard reactions),
- per-scheme recovery time after the first disruptive fault,
- final metrics (mean utilization, mean queue) printed at full
  precision — two runs with the same ``--seed`` must produce *identical*
  fault logs and metrics (the determinism acceptance check).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.experiments import (SCHEMES, ScenarioConfig,
                                        run_scenario_grid)
from repro.analysis.resilience import (fault_summary, first_fault_time,
                                       recovery_after)
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.resilience.faults import FaultPlan

__all__ = ["chaos_main", "build_chaos_parser"]


def build_chaos_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro chaos",
        description="chaos fault-injection benchmark (Fig. 7 + extended "
                    "fault matrix) with the resilience guard")
    p.add_argument("--scheme", nargs="+", default=["pet", "secn1"],
                   choices=list(SCHEMES), help="schemes to compare")
    p.add_argument("--matrix", default="extended",
                   choices=["fig7", "extended"],
                   help="fault set: the paper's link-failure episode, or "
                        "the full extended matrix")
    p.add_argument("--workload", default="websearch",
                   choices=["websearch", "datamining"])
    p.add_argument("--load", type=float, default=0.6)
    p.add_argument("--duration", type=float, default=0.1,
                   help="seconds of virtual time under chaos")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true",
                   help="small fabric + short horizon (CI smoke)")
    p.add_argument("--hosts-per-leaf", type=int, default=8)
    p.add_argument("--leaves", type=int, default=4)
    p.add_argument("--spines", type=int, default=2)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the scheme fan-out "
                        "(1 = serial in-process)")
    return p


def chaos_main(argv: Optional[List[str]] = None) -> int:
    args = build_chaos_parser().parse_args(argv)
    if args.quick:
        fabric = FluidConfig(n_spine=2, n_leaf=2, hosts_per_leaf=2,
                             host_rate_bps=10e9, spine_rate_bps=40e9)
        duration = min(args.duration, 0.05)
    else:
        fabric = FluidConfig(n_spine=args.spines, n_leaf=args.leaves,
                             hosts_per_leaf=args.hosts_per_leaf,
                             host_rate_bps=10e9, spine_rate_bps=40e9)
        duration = args.duration

    print(f"chaos matrix={args.matrix} seed={args.seed} "
          f"duration={duration * 1e3:.0f}ms")
    plan = (FaultPlan.fig7(duration) if args.matrix == "fig7" else
            FaultPlan.extended(duration, FluidNetwork(fabric).switch_names()))
    cfg = ScenarioConfig(workload=args.workload, load=args.load,
                         duration=duration, pretrain_intervals=0,
                         seed=args.seed, fluid=fabric,
                         faults=tuple(plan.specs))
    print(f"running {len(args.scheme)} scheme(s) under chaos ...",
          file=sys.stderr)
    results = run_scenario_grid([(s, cfg) for s in args.scheme],
                                workers=args.workers)

    for r in results:
        print(f"\n== {r.scheme}: fault log ==")
        for event in r.faults:
            print(f"  {event}")
        summary = " ".join(f"{k}={v}"
                           for k, v in fault_summary(r.faults).items())
        print(f"  summary: {summary if summary else 'no faults'}")
    print("\n== chaos metrics ==")
    print(f"{'scheme':<12} {'intervals':>9} {'faults':>7} "
          f"{'recovery':>9} {'mean_util':>12} {'mean_qlen_b':>14}")
    for r in results:
        fault_t = first_fault_time(r.faults)
        recovery = (recovery_after(r.utilization_trace, fault_t, cfg.delta_t)
                    if fault_t is not None else None)
        rec = f"{recovery}" if recovery is not None else "-"
        print(f"{r.scheme:<12} {len(r.utilization_trace):>9} "
              f"{len(r.faults):>7} {rec:>9} {r.mean_utilization:>12.9f} "
              f"{r.queue.mean_bytes:>14.3f}")
    return 0


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(chaos_main())
