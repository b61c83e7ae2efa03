"""Fat-tree sub-step cost against live queues, window blocks and active flows.

Measures what one 50 µs sub-step of ``ShardedFluidNetwork`` costs on the
``scale_xl`` per-pod shape (16 edges × 40 hosts, 8 aggregation switches
× 4 core uplinks per pod) over two sweeps of Web Search Poisson traffic:

- ``n_pods`` ∈ {4, 8, 16} at 5 % load;
- load ∈ {1, 5, 20 %} at 16 pods (``FatTreeConfig.scale_xl()`` itself).

One trial builds the fabric, starts the whole trial's traffic, runs
warm-up ticks and then times ``advance(1 ms)`` (20 sub-steps) tick by
tick, with ``queue_stats()`` between ticks outside the timed part, as
the control loop calls it.  Each ``advance`` is one window whose
sub-steps run on one block of queues (those holding bytes when it opens
or on the path of a flow active in it); its size is counted by wrapping
the network's ``_open_window``. Each sub-step's active flows and live
queues (by the plain per-sub-step rule: on an active path or holding
bytes) are counted by wrapping ``flow_phase`` where the network calls
it; a trial in which either wrapper saw nothing exits non-zero rather
than report zeros.  Between two sub-steps the active set changes by the
flows admitted and the flows finished (the change in active flows plus
the finishes), so each trial also records admissions and finishes per
sub-step and the median number of sub-steps between changes of the
active set — the length of a membership epoch (a reroute would change it
too, but this sweep fails no link). Trials visit the points round-robin,
so a slow spell of the machine spreads over all of them; ``calib_ms``
(the fixed kernel of ``benchmarks/perf/stats.py``) is recorded beside
every trial to show one.

Writes one JSON row per trial to ``--out`` (pods, load, seed, mean
active flows, mean live queues, mean window block, ``n_queues``,
admissions and finishes per sub-step, median epoch in sub-steps, ms per
sub-step, ``cpu_count``, ``calib_ms``), then prints the summary: per
point the median [q1..q3] of ms per sub-step and the medians of the
epoch columns, and least-squares slopes of ms per sub-step against live
queues and against active flows over all rows.

    python benchmarks/scale/fabric_cost.py            # 5 trials a point
    python benchmarks/scale/fabric_cost.py --quick    # 1 short trial a point
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "perf"))
sys.path.insert(0, os.path.join(ROOT, "src"))

from stats import calibrate, quartiles                 # noqa: E402

from repro.netsim import fluid, shard                   # noqa: E402
from repro.netsim.fattree import FatTreeConfig          # noqa: E402
from repro.traffic.generator import (PoissonTrafficGenerator,  # noqa: E402
                                     TrafficConfig)
from repro.traffic.workloads import workload_by_name    # noqa: E402

#: control tick: ``advance(TICK)`` is 20 sub-steps of ``step_dt`` = 50 µs
TICK = 1e-3
#: (n_pods, load) points: the pod sweep at 5 %, the load sweep at 16 pods
POINTS = ((4, 0.05), (8, 0.05), (16, 0.05), (16, 0.01), (16, 0.20))
#: the per-trial columns summarised per point
_COLUMNS = ("active_flows", "live_queues", "window_queues",
            "admissions_per_substep",
            "finishes_per_substep", "epoch_median_substeps", "ms_per_substep")


def trial(pods: int, load: float, seed: int, warm: int,
          ticks: int) -> Dict[str, Any]:
    """One fabric, warmed up, timed over ``ticks`` control ticks."""
    cfg = dataclasses.replace(FatTreeConfig.scale_xl(), n_pods=pods)
    net = shard.ShardedFluidNetwork(cfg, seed=seed)
    gen = PoissonTrafficGenerator(net.host_names(),
                                  workload_by_name("websearch"),
                                  rng=np.random.default_rng(seed + 1))
    net.start_flows(gen.generate(TrafficConfig(
        load=load, duration=(warm + ticks) * TICK,
        host_rate_bps=cfg.host_rate_bps)))
    for _ in range(warm):
        net.advance(TICK)
        net.queue_stats()

    flows: List[int] = []
    finished: List[int] = []
    live: List[int] = []
    window: List[int] = []
    block: List[Any] = []       # the open window's queues
    flow_phase, open_window = fluid.flow_phase, net._open_window

    def counted_open_window(*args):
        q, qmap = open_window(*args)
        block[:] = [q]
        window.append(len(q.queues))
        return q, qmap

    def counted_flow_phase(src, rate, path, *args, **kwargs):
        flows.append(len(src))
        finished.append(len(net.finished_flows))
        if block:   # a queue off the block is empty and on no path
            on = block[0].q_len != 0.0
            on[path[path >= 0]] = True
            live.append(int(on.sum()))
        return flow_phase(src, rate, path, *args, **kwargs)

    fluid.flow_phase = counted_flow_phase
    net._open_window = counted_open_window
    try:
        spent = 0.0
        for _ in range(ticks):
            t0 = time.perf_counter()
            net.advance(TICK)
            spent += time.perf_counter() - t0
            net.queue_stats()
    finally:
        fluid.flow_phase = flow_phase
        del net._open_window
    for name, seen in (("fluid.flow_phase", flows),
                       ("ShardedFluidNetwork._open_window", window)):
        if not seen:
            sys.exit(f"pods={pods} load={load} seed={seed}: the step never "
                     f"called {name}, so the trial has no samples")
    # between consecutive sub-steps: finishes, and admissions = the change
    # in active flows plus the finishes
    finishes = np.diff(finished)
    admissions = np.diff(flows) + finishes
    changes = np.flatnonzero((admissions > 0) | (finishes > 0))
    epochs = np.diff(changes)
    return {"pods": pods, "load": load, "seed": seed,
            "active_flows": float(np.mean(flows)),
            "live_queues": float(np.mean(live)),
            "window_queues": float(np.mean(window)),
            "n_queues": net.n_queues,
            "admissions_per_substep": float(np.mean(admissions)),
            "finishes_per_substep": float(np.mean(finishes)),
            # no two changes in the window: it is one epoch, at least
            "epoch_median_substeps": (float(np.median(epochs)) if epochs.size
                                      else float(len(flows))),
            "ms_per_substep": spent / (ticks * round(TICK / cfg.step_dt)) * 1e3,
            "cpu_count": os.cpu_count(), "calib_ms": calibrate()}


def slope(rows: List[Dict[str, Any]], x: str) -> Tuple[float, float]:
    """Least-squares ``(intercept ms, µs per unit of x)`` of ms per
    sub-step against column ``x``."""
    b, a = np.polyfit([r[x] for r in rows],
                      [r["ms_per_substep"] for r in rows], 1)
    return float(a), float(b) * 1e3


def summary(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    points = []
    for pods, load in POINTS:
        mine = [r for r in rows if (r["pods"], r["load"]) == (pods, load)]
        points.append({"pods": pods, "load": load,
                       "n_queues": mine[0]["n_queues"],
                       **{col: quartiles([r[col] for r in mine])
                          for col in _COLUMNS}})
    fits = {x: dict(zip(("intercept_ms", "us_per_unit"), slope(rows, x)))
            for x in ("live_queues", "active_flows")}
    return {"points": points, "fits": fits, "cpu_count": os.cpu_count()}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="one short trial per point (under 20 s)")
    ap.add_argument("--trials", type=int, default=5,
                    help="trials per point (ignored with --quick)")
    ap.add_argument("--out", default=os.path.join(HERE, "out",
                                                  "fabric_cost.jsonl"))
    args = ap.parse_args(argv)
    trials, warm, ticks = (1, 5, 10) if args.quick else (args.trials, 10, 40)

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    rows = []
    with open(args.out, "w") as fh:
        for t in range(trials):
            for pods, load in POINTS:
                row = trial(pods, load, seed=t, warm=warm, ticks=ticks)
                rows.append(row)
                fh.write(json.dumps(row) + "\n")
                print(f"pods={pods:2d} load={load:.2f} seed={t}: "
                      f"{row['active_flows']:7.0f} flows "
                      f"{row['live_queues']:7.0f}/{row['window_queues']:.0f}/"
                      f"{row['n_queues']} live/window/all queues "
                      f"+{row['admissions_per_substep']:.1f} "
                      f"-{row['finishes_per_substep']:.1f} flows "
                      f"epoch {row['epoch_median_substeps']:g} "
                      f"{row['ms_per_substep']:.3f} ms/sub-step", flush=True)

    s = summary(rows)
    print(f"\nms per sub-step, median [q1..q3] of {trials} trial(s); "
          f"cpu_count={s['cpu_count']}")
    for p in s["points"]:
        m = p["ms_per_substep"]
        print(f"  pods={p['pods']:2d} load={p['load']:.2f}  "
              f"flows {p['active_flows']['median']:7.0f}  "
              f"live {p['live_queues']['median']:7.0f} "
              f"window {p['window_queues']['median']:7.0f} "
              f"of {p['n_queues']:6d}  "
              f"+{p['admissions_per_substep']['median']:.1f} "
              f"-{p['finishes_per_substep']['median']:.1f} per sub-step, "
              f"epoch {p['epoch_median_substeps']['median']:g}  "
              f"{m['median']:.3f} [{m['q1']:.3f}..{m['q3']:.3f}]")
    for x, fit in s["fits"].items():
        print(f"  fit vs {x}: {fit['intercept_ms']:.3f} ms + "
              f"{fit['us_per_unit']:.4f} µs × {x}")
    print(json.dumps(s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
