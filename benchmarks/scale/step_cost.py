"""Leaf–spine fluid sub-step cost and its phase split.

Measures what one 50 µs sub-step of the shared fluid step costs on the
two leaf–spine fabrics the benchmarks run: the 32-host Fig. 4 fabric
(4 leaves × 8 hosts, 2 spines, 10/40 Gbps) and the 96-host fleet32
fabric (24 leaves × 4 hosts, 8 spines), under Web Search Poisson traffic
at loads {0.3, 0.6, 0.8}, as one solo ``FluidNetwork`` (R = 1) and as a
``BatchFluidNetwork`` of six replicas with their own seeds and traffic
(R = 6).  The ECN is every switch's default, SECN1.

Every point runs in a child process of its own (so one point's heap
cannot shape the next one's timings).  The child starts the whole
run's traffic, runs warm-up ticks and then two timed passes of
``advance(1 ms)`` (20 sub-steps) ticks, with ``queue_stats()`` between
ticks outside the timed part, as the control loop calls it:

1. **bare** — nothing wrapped: ``us_per_substep`` is the median tick lap
   over 20 sub-steps (the number to compare between commits);
2. **phased** — perf_counter wrappers on each network's
   ``_activate_due`` (admission) and on ``fluid.flow_phase``,
   ``fluid.queue_phase`` (integrate) and ``fluid.feedback_phase``, which
   the step calls through; ``tail`` is every gap between two wrapped
   calls of one window (the active rows and path gather before the flow
   phase, the completion records and latency sample after the
   feedback).  The wrappers add their own cost.

A point exits non-zero if a wrapper saw nothing, or if the five phases
miss the phased pass's timed sub-steps by more than 10 % (what is left
is window open and close and the ``advance`` call itself).  Points are
visited round-robin per trial, so a slow spell of the machine spreads
over all of them; ``calib_ms`` (the fixed kernel of
``benchmarks/perf/stats.py``) is recorded beside every row to show one.

Writes one JSON row per (trial, point) to ``--out`` (fabric, load,
replicas, seed, mean active flows, µs per sub-step bare and phased, the
phase split in µs per sub-step, the phases' coverage of the phased
sub-step, ``cpu_count``, ``calib_ms``), then prints per point the median
[q1..q3] of µs per sub-step and the median phase split.

    python benchmarks/scale/step_cost.py            # 3 trials a point
    python benchmarks/scale/step_cost.py --quick    # 1 short trial a point
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "perf"))
sys.path.insert(0, os.path.join(ROOT, "src"))

from stats import calibrate, quartiles                 # noqa: E402

from repro.netsim import fluid                          # noqa: E402
from repro.netsim.batchfluid import BatchFluidNetwork   # noqa: E402
from repro.traffic.generator import (PoissonTrafficGenerator,  # noqa: E402
                                     TrafficConfig)
from repro.traffic.workloads import workload_by_name    # noqa: E402

#: control tick: ``advance(TICK)`` is 20 sub-steps of ``step_dt`` = 50 µs
TICK = 1e-3
#: the fabrics, as ``FluidConfig`` keyword arguments
FABRICS = {
    "fig4": dict(n_spine=2, n_leaf=4, hosts_per_leaf=8,
                 host_rate_bps=10e9, spine_rate_bps=40e9),
    "fleet32": dict(n_spine=8, n_leaf=24, hosts_per_leaf=4,
                    host_rate_bps=10e9, spine_rate_bps=40e9),
}
LOADS = (0.3, 0.6, 0.8)
REPLICAS = (1, 6)
#: the phases, in step order: what wraps each is in ``_wrap_phases``
PHASES = ("admission", "flow_phase", "integrate", "feedback_phase", "tail")
#: the largest share of a phased sub-step the phases may leave out
MAX_MISS = 0.10


def _network(fabric: str, load: float, replicas: int, seed: int,
             ticks: int) -> Any:
    """The fabric (a solo network, or a batch of ``replicas``), each
    replica with ``ticks`` ticks of its own traffic started."""
    cfg = fluid.FluidConfig(**FABRICS[fabric])
    nets = [fluid.FluidNetwork(cfg, seed=seed + r) for r in range(replicas)]
    for r, net in enumerate(nets):
        gen = PoissonTrafficGenerator(net.host_names(),
                                      workload_by_name("websearch"),
                                      rng=np.random.default_rng(seed + r + 1))
        net.start_flows(gen.generate(TrafficConfig(
            load=load, duration=ticks * TICK,
            host_rate_bps=cfg.host_rate_bps)))
    return nets[0] if replicas == 1 else BatchFluidNetwork.from_networks(nets)


def _views(net: Any) -> List[Any]:
    return net.views() if isinstance(net, BatchFluidNetwork) else [net]


def _active(net: Any) -> int:
    """Flows in the tables now (started, not finished)."""
    return sum(len(v._table.active(v._owners)) for v in _views(net))


def _ticks(net: Any, n: int) -> List[float]:
    """``n`` control ticks; returns each ``advance``'s wall in seconds."""
    laps = []
    for _ in range(n):
        t0 = time.perf_counter()
        net.advance(TICK)
        laps.append(time.perf_counter() - t0)
        for view in _views(net):
            view.queue_stats()
    return laps


def _wrap_phases(net: Any, spent: Dict[str, float],
                 calls: Dict[str, int]) -> Callable[[], None]:
    """Install the phase wrappers; returns what removes them.  Every
    wrapped call adds its own time to its phase, and the gap since the
    previous wrapped call of the window to ``tail``."""
    clock = time.perf_counter
    last = [None]       # the previous wrapped call's end, in this window

    def timed(phase: str, real: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            t0 = clock()
            if last[0] is not None:
                spent["tail"] += t0 - last[0]
            out = real(*args, **kwargs)
            t1 = clock()
            spent[phase] += t1 - t0
            calls[phase] += 1
            last[0] = t1
            return out
        return wrapper

    modules = {"flow_phase": "flow_phase", "queue_phase": "integrate",
               "feedback_phase": "feedback_phase"}
    real_fns = {name: getattr(fluid, name) for name in modules}
    for name, phase in modules.items():
        setattr(fluid, name, timed(phase, real_fns[name]))
    for view in _views(net):
        view._activate_due = timed("admission", view._activate_due)
    real_open, real_close = net._open_window, net._close_window

    def open_window(*args):
        last[0] = None
        return real_open(*args)

    def close_window(q):
        if last[0] is not None:
            spent["tail"] += clock() - last[0]
            calls["tail"] += 1
        last[0] = None
        return real_close(q)

    net._open_window, net._close_window = open_window, close_window

    def unwrap() -> None:
        for name in modules:
            setattr(fluid, name, real_fns[name])
        for view in _views(net):
            del view._activate_due
        del net._open_window, net._close_window
    return unwrap


def point(fabric: str, load: float, replicas: int, seed: int, warm: int,
          ticks: int) -> Dict[str, Any]:
    """One fabric, warmed up, timed bare and then phased over ``ticks``
    control ticks each."""
    net = _network(fabric, load, replicas, seed, warm + 2 * ticks)
    _ticks(net, warm)
    substeps = round(TICK / net.config.step_dt)
    active = [_active(net)]
    bare = _ticks(net, ticks)
    active.append(_active(net))
    spent = dict.fromkeys(PHASES, 0.0)
    calls = dict.fromkeys(PHASES, 0)
    unwrap = _wrap_phases(net, spent, calls)
    try:
        phased = _ticks(net, ticks)
    finally:
        unwrap()
    where = f"{fabric} load={load} R={replicas} seed={seed}"
    for phase, n in calls.items():
        if not n:
            sys.exit(f"{where}: the {phase} wrapper saw nothing, so the "
                     "phase split has no samples")
    wall = sum(phased)
    covered = sum(spent.values()) / wall
    if abs(1.0 - covered) > MAX_MISS:
        sys.exit(f"{where}: the phases cover {covered:.1%} of the timed "
                 f"sub-steps, more than {MAX_MISS:.0%} off")
    per_substep = 1e6 / (ticks * substeps)
    return {"fabric": fabric, "load": load, "replicas": replicas,
            "seed": seed, "ticks": ticks,
            "active_flows": float(np.mean(active)),
            "us_per_substep": float(np.median(bare)) * 1e6 / substeps,
            "phased_us_per_substep": wall * per_substep,
            "phases_us": {p: spent[p] * per_substep for p in PHASES},
            "coverage": covered,
            "cpu_count": os.cpu_count(), "calib_ms": calibrate()}


def run_child(fabric: str, load: float, replicas: int, seed: int, warm: int,
              ticks: int) -> Dict[str, Any]:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--point", fabric,
         str(load), str(replicas), "--seed", str(seed), "--warm", str(warm),
         "--ticks", str(ticks)], capture_output=True, text=True)
    if out.returncode:
        sys.exit(out.stderr.strip().splitlines()[-1] if out.stderr.strip()
                 else f"point {fabric} {load} R={replicas} failed")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="one short trial per point")
    ap.add_argument("--trials", type=int, default=3,
                    help="trials per point (ignored with --quick)")
    ap.add_argument("--warm", type=int, default=30, help="warm-up ticks")
    ap.add_argument("--ticks", type=int, default=200,
                    help="timed ticks per pass")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--point", nargs=3, metavar=("FABRIC", "LOAD", "R"),
                    help=argparse.SUPPRESS)      # one child's measurement
    ap.add_argument("--out", default=os.path.join(HERE, "out",
                                                  "step_cost.jsonl"))
    args = ap.parse_args(argv)
    if args.point:
        fabric, load, replicas = args.point
        print(json.dumps(point(fabric, float(load), int(replicas),
                               args.seed, args.warm, args.ticks)))
        return 0
    trials, warm, ticks = ((1, 10, 30) if args.quick
                           else (args.trials, args.warm, args.ticks))

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    rows = []
    with open(args.out, "w") as fh:
        for t in range(trials):
            for fabric in FABRICS:
                for replicas in REPLICAS:
                    for load in LOADS:
                        row = run_child(fabric, load, replicas,
                                        args.seed + t, warm, ticks)
                        rows.append(row)
                        fh.write(json.dumps(row) + "\n")
                        split = " ".join(f"{p} {row['phases_us'][p]:.1f}"
                                         for p in PHASES)
                        print(f"{fabric:7s} load={load:.1f} R={replicas} "
                              f"trial={t}: {row['active_flows']:6.0f} flows "
                              f"{row['us_per_substep']:7.1f} µs/sub-step "
                              f"(phased {row['phased_us_per_substep']:.1f}: "
                              f"{split}) calib {row['calib_ms']:.1f} ms",
                              flush=True)

    print(f"\nµs per sub-step, median [q1..q3] of {trials} trial(s), and "
          f"the median phase split; cpu_count={os.cpu_count()}")
    for fabric in FABRICS:
        for replicas in REPLICAS:
            for load in LOADS:
                mine = [r for r in rows if (r["fabric"], r["replicas"],
                                            r["load"]) == (fabric, replicas,
                                                           load)]
                q = quartiles([r["us_per_substep"] for r in mine])
                split = " ".join(
                    f"{p} {np.median([r['phases_us'][p] for r in mine]):.1f}"
                    for p in PHASES)
                print(f"  {fabric:7s} load={load:.1f} R={replicas}  "
                      f"{q['median']:7.1f} [{q['q1']:.1f}..{q['q3']:.1f}]  "
                      f"{split}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
