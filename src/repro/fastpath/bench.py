"""``python -m repro bench --hotpath`` — fastpath-vs-reference benchmark.

Times the four hot paths the :mod:`repro.fastpath` work optimizes —

- ``tick_loop``   — the full PET control loop (fluid simulator +
  NCM/state/reward pipeline + batched IPPO inference + PPO updates),
- ``ppo_update``  — IPPO act/record/update in isolation (batched
  cross-agent inference, vectorized GAE, fused Adam),
- ``packet_sim``  — the packet-level event simulator (tuple-heap event
  loop, O(1) ``pending()``, baseline-list ``queue_stats``),
- ``fluid_sim``   — the fluid simulator (the shared step phases,
  cached per-switch stats indices) —

running each once with ``fastpath=False`` (the pre-existing reference
implementations) and once with ``fastpath=True``, verifying the two
produce **bit-identical results** (the fastpath contract: speed never
buys different numbers), and writing ``BENCH_hotpath.json`` with wall
times, speedups, per-leg ``repro.obs`` hot-path attributions, and the
machine context needed to interpret them.

``--baseline BENCH_hotpath.json`` turns the run into a regression
guard: the exit code is non-zero if any workload's speedup falls below
``0.75 x`` the baseline's speedup for that workload, or if any result
fingerprint mismatches.  CI runs ``--quick --baseline`` against the
committed report; speedup ratios are dimensionless, so the quick-mode
guard tracks the full-mode baseline across machine speeds.

Usage::

    python -m repro bench --hotpath --quick                 # CI smoke
    python -m repro bench --hotpath --out BENCH_hotpath.json
    python -m repro bench --hotpath --quick --baseline BENCH_hotpath.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.perfbench import _fingerprint as fingerprint

__all__ = ["run_hotpath_bench", "hotpath_main", "build_hotpath_parser",
           "HOTPATH_WORKLOADS", "fingerprint"]

DEFAULT_OUT = "BENCH_hotpath.json"
BENCH_SCHEMA = "repro.hotpath/v1"
#: guard threshold: current speedup must stay above this fraction of the
#: baseline speedup for the same workload.
GUARD_RATIO = 0.75


# ------------------------------------------------------------- workloads
#
# Each workload is ``build(fastpath, quick) -> (run, units)``: ``build``
# constructs everything that should *not* be timed; ``run()`` executes
# the measured section and returns a result object whose fingerprint
# must be identical across the two legs.  ``units`` labels the workload
# size ("intervals=300", ...) in the report.

def _tick_fabric(quick: bool):
    from repro.netsim.fluid import FluidConfig
    if quick:
        return FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                           host_rate_bps=10e9, spine_rate_bps=40e9)
    return FluidConfig(n_spine=2, n_leaf=4, hosts_per_leaf=4,
                       host_rate_bps=10e9, spine_rate_bps=40e9)


def _traffic_net(fabric, *, fastpath: bool, seed: int, duration: float,
                 load: float = 0.6):
    from repro.netsim.fluid import FluidNetwork
    from repro.traffic.generator import PoissonTrafficGenerator, TrafficConfig
    from repro.traffic.workloads import workload_by_name

    net = FluidNetwork(fabric, seed=seed, fastpath=fastpath)
    gen = PoissonTrafficGenerator(net.host_names(),
                                  workload_by_name("websearch"),
                                  rng=np.random.default_rng(seed + 1))
    net.start_flows(gen.generate(TrafficConfig(
        load=load, duration=duration, host_rate_bps=fabric.host_rate_bps,
        start_time=0.0)))
    return net


def _build_tick_loop(fastpath: bool, quick: bool
                     ) -> Tuple[Callable[[], Any], str]:
    from repro.core.config import PETConfig
    from repro.core.pet import PETController
    from repro.core.training import run_control_loop

    intervals = 60 if quick else 300
    fabric = _tick_fabric(quick)
    net = _traffic_net(fabric, fastpath=fastpath, seed=0,
                       duration=intervals * 1e-3)
    cfg = PETConfig(delta_t=1e-3, update_interval=16, seed=0,
                    fastpath=fastpath)
    pet = PETController(net.switch_names(), cfg)

    def run():
        res = run_control_loop(net, pet, intervals=intervals, delta_t=1e-3)
        return {"trace": res.reward_trace,
                "rewards": res.rewards_per_switch,
                "state": pet.state_dict(),
                "q_len": net.q_len.copy()}

    return run, f"intervals={intervals}"


def _build_ppo_update(fastpath: bool, quick: bool
                      ) -> Tuple[Callable[[], Any], str]:
    from repro.obs.trace import get_tracer
    from repro.rl.ippo import IPPOTrainer
    from repro.rl.ppo import PPOConfig

    n_agents, obs_dim = 12, 24
    steps = 128 if quick else 512
    horizon = 64
    cfg = PPOConfig(obs_dim=obs_dim, n_actions=10, hidden=(64, 64),
                    epochs=4, minibatch_size=64, seed=0, fastpath=fastpath)
    ids = [f"s{i}" for i in range(n_agents)]
    trainer = IPPOTrainer(ids, cfg)
    rng = np.random.default_rng(123)
    all_obs = [{aid: o for aid, o in zip(ids, rng.normal(size=(n_agents,
                                                               obs_dim)))}
               for _ in range(steps + 1)]
    all_rewards = rng.normal(size=(steps, n_agents))

    def run():
        tr = get_tracer()
        out: Dict[str, Any] = {"stats": []}
        for t in range(steps):
            obs = all_obs[t]
            with tr.span("pet.act", step=t):
                dec = trainer.act(obs, epsilon=0.1)
            for i, aid in enumerate(ids):
                d = dec[aid]
                trainer.agents[aid].record(
                    obs[aid], int(d["action"]), float(all_rewards[t, i]),
                    False, d["log_prob"], d["value"])
            if (t + 1) % horizon == 0:
                with tr.span("ppo.update", step=t):
                    out["stats"].append(trainer.update(all_obs[t + 1]))
        out["state"] = trainer.state_dict()
        return out

    return run, f"agents={n_agents} steps={steps}"


def _build_packet_sim(fastpath: bool, quick: bool
                      ) -> Tuple[Callable[[], Any], str]:
    from repro.netsim.flow import Flow
    from repro.netsim.network import PacketNetwork
    from repro.netsim.topology import TopologyConfig
    from repro.obs.trace import get_tracer

    if quick:
        topo = TopologyConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                              host_rate_bps=2e8, spine_rate_bps=8e8)
        n_flows, intervals = 12, 20
    else:
        topo = TopologyConfig(n_spine=2, n_leaf=4, hosts_per_leaf=4,
                              host_rate_bps=2e8, spine_rate_bps=8e8)
        n_flows, intervals = 64, 40
    net = PacketNetwork(topo, seed=0, fastpath=fastpath)
    rng = np.random.default_rng(7)
    hosts = net.host_names()
    flows = []
    for i in range(n_flows):
        src, dst = rng.choice(len(hosts), size=2, replace=False)
        flows.append(Flow(i, hosts[src], hosts[dst],
                          int(rng.integers(20_000, 300_000)),
                          start_time=float(rng.uniform(0, 2e-3))))
    net.start_flows(flows)

    def run():
        tr = get_tracer()
        stats = []
        for i in range(intervals):
            with tr.span("net.advance", interval=i):
                net.advance(1e-3)
            with tr.span("net.queue_stats", interval=i):
                stats.append(net.queue_stats())
        return {"stats": stats,
                "events": net.sim.events_processed,
                "latencies": list(net.latencies),
                "finished": [(f.flow_id, f.finish_time)
                             for f in net.finished_flows]}

    return run, f"flows={n_flows} intervals={intervals}"


def _build_fluid_sim(fastpath: bool, quick: bool
                     ) -> Tuple[Callable[[], Any], str]:
    from repro.netsim.ecn import ECNConfig
    from repro.obs.trace import get_tracer

    intervals = 50 if quick else 400
    net = _traffic_net(_tick_fabric(quick), fastpath=fastpath, seed=3,
                       duration=intervals * 1e-3, load=0.7)
    net.set_ecn_all(ECNConfig(kmin_bytes=20_000, kmax_bytes=80_000,
                              pmax=0.2))

    def run():
        tr = get_tracer()
        stats = []
        for i in range(intervals):
            with tr.span("net.advance", interval=i):
                net.advance(1e-3)
            with tr.span("net.queue_stats", interval=i):
                stats.append(net.queue_stats())
        return {"stats": stats, "q_len": net.q_len.copy()}

    return run, f"intervals={intervals}"


def _build_sim_batch(fastpath: bool, quick: bool
                     ) -> Tuple[Callable[[], Any], str]:
    """Sim-as-batch: R fluid replicas — solo loop vs one (R, n, H) kernel.

    The two legs repurpose the fastpath switch: ``fastpath=False`` steps
    R independent ``FluidNetwork`` replicas in a Python loop (the
    per-process evaluation model, minus process overhead);
    ``fastpath=True`` adopts the same replicas into one
    :class:`repro.netsim.batchfluid.BatchFluidNetwork`.  Replicas carry
    heterogeneous seeds, traffic and ECN configs, and the fingerprinted
    per-replica interval stats must be bit-identical across legs (the
    sim-as-batch contract; ``tests/test_batchfluid.py``).
    """
    from repro.netsim.batchfluid import BatchFluidNetwork
    from repro.netsim.ecn import ECNConfig
    from repro.obs.trace import get_tracer

    # R stays the same in both modes: the measured speedup scales with
    # the replica count, and the CI quick run is guarded against the
    # committed full-mode baseline — only the horizon shrinks.
    R = 8
    intervals = 25 if quick else 120
    fabric = _tick_fabric(quick)
    nets = [_traffic_net(fabric, fastpath=True, seed=10 + r,
                         duration=intervals * 1e-3, load=0.7)
            for r in range(R)]
    for r, net in enumerate(nets):
        net.set_ecn_all(ECNConfig(kmin_bytes=10_000 * (r + 1),
                                  kmax_bytes=60_000 * (r + 1),
                                  pmax=0.1 + 0.1 * r))
    batch = BatchFluidNetwork.from_networks(nets) if fastpath else None

    def run():
        tr = get_tracer()
        stats = []
        for i in range(intervals):
            with tr.span("net.advance", interval=i):
                if batch is not None:
                    batch.advance(1e-3)
                else:
                    for net in nets:
                        net.advance(1e-3)
            with tr.span("net.queue_stats", interval=i):
                stats.append([net.queue_stats() for net in nets])
        return {"stats": stats, "q_len": [net.q_len.copy() for net in nets]}

    return run, f"replicas={R} intervals={intervals}"


def _build_sim_shard(fastpath: bool, quick: bool
                     ) -> Tuple[Callable[[], Any], str]:
    """Spatial sharding: a multi-pod fat-tree, monolithic vs 4 shards.

    The two legs repurpose the fastpath switch: ``fastpath=False`` steps
    the whole fabric as one subdomain group (``shards=1``);
    ``fastpath=True`` splits it into 4 shard groups stepped per Δt with
    boundary arrivals exchanged through the global flow phase.  The
    fingerprinted interval stats and final queue state must be
    bit-identical across legs (the sharding contract;
    ``tests/test_shard.py``).  Full mode uses the 80-switch
    production-scale fabric — the capacity headline — quick mode the
    10-switch small one.
    """
    from repro.netsim.ecn import ECNConfig
    from repro.netsim.fattree import FatTreeConfig
    from repro.netsim.flow import Flow
    from repro.netsim.shard import ShardedFluidNetwork
    from repro.obs.trace import get_tracer

    if quick:
        # same 4-pod shape as full mode (so the quick speedup tracks the
        # committed full-mode baseline), just a narrower fabric
        cfg = FatTreeConfig(n_pods=4, edge_per_pod=2, agg_per_pod=2,
                            core_per_agg=1, hosts_per_edge=4)
        n_flows, intervals = 120, 30
    else:
        cfg = FatTreeConfig.production_scale()
        n_flows, intervals = 400, 60
    shards = 4 if fastpath else 1
    net = ShardedFluidNetwork(cfg, shards=shards, seed=0)
    net.set_ecn_all(ECNConfig(kmin_bytes=20_000, kmax_bytes=80_000,
                              pmax=0.2))
    rng = np.random.default_rng(11)
    flows = []
    for i in range(n_flows):
        src, dst = rng.choice(cfg.n_hosts, size=2, replace=False)
        flows.append(Flow(i, f"h{src}", f"h{dst}",
                          int(rng.integers(100_000, 4_000_000)),
                          start_time=float(rng.uniform(0, 5e-3))))
    net.start_flows(flows)

    def run():
        tr = get_tracer()
        stats = []
        for i in range(intervals):
            with tr.span("net.advance", interval=i):
                net.advance(1e-3)
            with tr.span("net.queue_stats", interval=i):
                stats.append(net.queue_stats())
        return {"stats": stats, "q_len": net.q_len.copy(),
                "memory": net.memory_report()}

    return run, f"switches={cfg.n_switches} shards={shards}"


def _build_sim_shard_xl(fastpath: bool, quick: bool
                        ) -> Tuple[Callable[[], Any], str]:
    """Flow-phase sharding at the 10k-host scale (ISSUE 10 headline).

    Same leg semantics as ``sim_shard`` — ``fastpath=False`` steps one
    shard group, ``fastpath=True`` eight — but on the
    :meth:`~repro.netsim.fattree.FatTreeConfig.scale_xl` fabric (16
    pods, 416 switches, 10240 hosts), where the *flow table itself* is
    partitioned per owner pod (rows of one stacked table, stepped in
    one fabric-wide pass whatever the shard count, so both legs do the
    same in-process work).  The result carries the per-shard
    ``memory_report()``
    and the flow-balance evidence (max per-pod vs total active flows);
    both legs must fingerprint bit-identically.  Quick mode runs the
    same 16-pod shape narrowed to ~1k hosts.
    """
    from repro.netsim.ecn import ECNConfig
    from repro.netsim.fattree import FatTreeConfig
    from repro.netsim.flow import Flow
    from repro.netsim.shard import ShardedFluidNetwork
    from repro.obs.trace import get_tracer

    if quick:
        # 16 pods so shards=8 still groups >1 subdomain per shard
        cfg = FatTreeConfig(n_pods=16, edge_per_pod=4, agg_per_pod=4,
                            core_per_agg=2, hosts_per_edge=16)
        n_flows, intervals = 400, 5
    else:
        cfg = FatTreeConfig.scale_xl()
        n_flows, intervals = 2000, 20
    shards = 8 if fastpath else 1
    net = ShardedFluidNetwork(cfg, shards=shards, seed=0)
    net.set_ecn_all(ECNConfig(kmin_bytes=20_000, kmax_bytes=80_000,
                              pmax=0.2))
    rng = np.random.default_rng(17)
    flows = []
    for i in range(n_flows):
        src, dst = rng.choice(cfg.n_hosts, size=2, replace=False)
        flows.append(Flow(i, f"h{src}", f"h{dst}",
                          int(rng.integers(100_000, 4_000_000)),
                          start_time=float(rng.uniform(0, 5e-3))))
    net.start_flows(flows)

    def run():
        tr = get_tracer()
        stats = []
        for i in range(intervals):
            with tr.span("net.advance", interval=i):
                net.advance(1e-3)
            with tr.span("net.queue_stats", interval=i):
                stats.append(net.queue_stats())
        per_pod = [int(sh.f_active[:sh._n_flows].sum())
                   for sh in net.flow_shards]
        return {"stats": stats, "q_len": net.q_len.copy(),
                "memory": net.memory_report(),
                "flow_balance": {"max_per_pod": max(per_pod),
                                 "total_active": sum(per_pod),
                                 "boundary_rows": net._last_boundary_rows}}

    return run, f"hosts={cfg.n_hosts} shards={shards}"


HOTPATH_WORKLOADS: Dict[str, Callable[[bool, bool],
                                      Tuple[Callable[[], Any], str]]] = {
    "tick_loop": _build_tick_loop,
    "ppo_update": _build_ppo_update,
    "packet_sim": _build_packet_sim,
    "fluid_sim": _build_fluid_sim,
    "sim_batch": _build_sim_batch,
    "sim_shard": _build_sim_shard,
    "sim_shard_xl": _build_sim_shard_xl,
}


# ------------------------------------------------------------- harness
def _time_leg(name: str, fastpath: bool, quick: bool, repeat: int
              ) -> Tuple[float, str]:
    """Best-of-``repeat`` wall time and the result fingerprint for one leg.

    Each repetition rebuilds the workload from scratch (``build`` is not
    timed) so state never carries across repetitions; the runs are
    deterministic, so every repetition must fingerprint identically.
    """
    build = HOTPATH_WORKLOADS[name]
    best = float("inf")
    fp = ""
    for r in range(repeat):
        run, _units = build(fastpath, quick)
        t0 = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
        this_fp = fingerprint(result)
        if r and this_fp != fp:
            raise RuntimeError(
                f"{name}: non-deterministic across repetitions "
                f"(fastpath={fastpath})")
        fp = this_fp
    return best, fp


def _attribution_leg(name: str, fastpath: bool, quick: bool
                     ) -> Tuple[Dict[str, Any], str]:
    """One extra (untimed) run under the tracer for hot-path attribution.

    Returns the attribution table and the traced run's fingerprint — the
    fingerprint must match the untraced leg's, proving instrumentation
    does not change results.
    """
    import repro.obs as obs
    from repro.obs.profile import hot_path_attribution

    run, _units = HOTPATH_WORKLOADS[name](fastpath, quick)
    _, tracer = obs.enable()
    try:
        result = run()
        hot = {span: {"total_s": round(d["total_s"], 6),
                      "count": d["count"],
                      "mean_s": round(d["mean_s"], 9)}
               for span, d in hot_path_attribution(tracer).items()}
    finally:
        obs.disable()
    return hot, fingerprint(result)


def _run_workload(name: str, quick: bool, repeat: int,
                  attribution: bool) -> Dict[str, Any]:
    _, units = HOTPATH_WORKLOADS[name](True, quick)
    ref_s, ref_fp = _time_leg(name, False, quick, repeat)
    fast_s, fast_fp = _time_leg(name, True, quick, repeat)
    results_match = ref_fp == fast_fp

    out: Dict[str, Any] = {
        "name": name,
        "units": units,
        "reference_s": round(ref_s, 6),
        "fastpath_s": round(fast_s, 6),
        "speedup": round(ref_s / max(fast_s, 1e-9), 3),
        "results_match": bool(results_match),
        "fingerprint": fast_fp,
    }
    if attribution:
        ref_hot, ref_traced_fp = _attribution_leg(name, False, quick)
        fast_hot, fast_traced_fp = _attribution_leg(name, True, quick)
        out["hot_paths"] = {"reference": ref_hot, "fastpath": fast_hot}
        # tracing must not change the numbers either
        out["results_match"] = bool(results_match
                                    and ref_traced_fp == ref_fp
                                    and fast_traced_fp == fast_fp)
    return out


def run_hotpath_bench(*, quick: bool = False, repeat: int = 1,
                      workloads: Optional[Sequence[str]] = None,
                      out: Optional[str] = DEFAULT_OUT,
                      attribution: bool = True) -> Dict[str, Any]:
    """Run the fastpath-vs-reference benchmark; returns (and writes) it."""
    if repeat < 1:
        raise ValueError("--repeat must be >= 1")
    names = list(workloads) if workloads else list(HOTPATH_WORKLOADS)
    unknown = [n for n in names if n not in HOTPATH_WORKLOADS]
    if unknown:
        raise ValueError(f"unknown workload(s) {unknown}; "
                         f"choose from {sorted(HOTPATH_WORKLOADS)}")
    results = []
    for name in names:
        print(f"bench --hotpath: {name} (reference then fastpath) ...",
              file=sys.stderr)
        results.append(_run_workload(name, quick, repeat, attribution))
    ref_total = sum(w["reference_s"] for w in results)
    fast_total = sum(w["fastpath_s"] for w in results)
    report = {
        "schema": BENCH_SCHEMA,
        "quick": bool(quick),
        "repeat": repeat,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "workloads": results,
        "total": {
            "reference_s": round(ref_total, 6),
            "fastpath_s": round(fast_total, 6),
            "speedup": round(ref_total / max(fast_total, 1e-9), 3),
            "all_results_match": all(w["results_match"] for w in results),
        },
    }
    if out:
        with open(out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    return report


def check_against_baseline(report: Dict[str, Any],
                           baseline: Dict[str, Any]) -> List[str]:
    """Speedup-regression guard; returns failure messages (empty = pass).

    Speedups are dimensionless ratios of the same workload on the same
    machine, so a quick-mode run remains comparable to a full-mode
    baseline captured elsewhere.
    """
    failures = []
    base_by_name = {w["name"]: w for w in baseline.get("workloads", [])}
    for w in report["workloads"]:
        b = base_by_name.get(w["name"])
        if b is None:
            continue
        floor = GUARD_RATIO * b["speedup"]
        if w["speedup"] < floor:
            failures.append(
                f"{w['name']}: speedup {w['speedup']:.2f}x fell below "
                f"{GUARD_RATIO:.2f} x baseline {b['speedup']:.2f}x "
                f"(floor {floor:.2f}x)")
    return failures


def _print_report(report: Dict[str, Any]) -> None:
    print(f"\n== bench --hotpath ({'quick' if report['quick'] else 'full'}, "
          f"repeat={report['repeat']}, cpu_count={report['cpu_count']}) ==")
    print(f"{'workload':<12} {'units':<24} {'reference_s':>12} "
          f"{'fastpath_s':>11} {'speedup':>8} {'match':>6}")
    for w in report["workloads"]:
        print(f"{w['name']:<12} {w['units']:<24} {w['reference_s']:>12.3f} "
              f"{w['fastpath_s']:>11.3f} {w['speedup']:>8.2f} "
              f"{'yes' if w['results_match'] else 'NO':>6}")
    t = report["total"]
    print(f"{'total':<12} {'':<24} {t['reference_s']:>12.3f} "
          f"{t['fastpath_s']:>11.3f} {t['speedup']:>8.2f} "
          f"{'yes' if t['all_results_match'] else 'NO':>6}")
    for w in report["workloads"]:
        hp = w.get("hot_paths")
        if not hp:
            continue
        ref, fast = hp["reference"], hp["fastpath"]
        spans = sorted(set(ref) | set(fast),
                       key=lambda s: -ref.get(s, {}).get("total_s", 0.0))
        print(f"\n-- hot paths: {w['name']} (reference vs fastpath) --")
        for span in spans:
            r = ref.get(span, {}).get("total_s", 0.0)
            f_ = fast.get(span, {}).get("total_s", 0.0)
            ratio = r / f_ if f_ > 0 else float("inf")
            print(f"  {span:<20} {r:>9.3f}s -> {f_:>8.3f}s  "
                  f"x{ratio:>5.2f}")


def build_hotpath_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro bench --hotpath",
        description="fastpath-vs-reference hot-path benchmark "
                    "(emits BENCH_hotpath.json)")
    p.add_argument("--quick", action="store_true",
                   help="small workloads (CI smoke)")
    p.add_argument("--repeat", type=int, default=1,
                   help="timing repetitions per leg (best-of)")
    p.add_argument("--workload", nargs="+",
                   choices=sorted(HOTPATH_WORKLOADS), default=None,
                   help="subset of workloads to run")
    p.add_argument("--out", default=DEFAULT_OUT,
                   help=f"output JSON path (default {DEFAULT_OUT})")
    p.add_argument("--no-attribution", action="store_true",
                   help="skip the traced runs that attach per-stage "
                        "hot-path attribution")
    p.add_argument("--baseline", default=None,
                   help="committed BENCH_hotpath.json to guard against: "
                        f"fail if any workload speedup drops below "
                        f"{GUARD_RATIO} x its baseline speedup")
    return p


def hotpath_main(argv: Optional[List[str]] = None) -> int:
    args = build_hotpath_parser().parse_args(argv)
    report = run_hotpath_bench(quick=args.quick, repeat=args.repeat,
                               workloads=args.workload, out=args.out,
                               attribution=not args.no_attribution)
    _print_report(report)
    print(f"\nwrote {args.out}")
    rc = 0
    if not report["total"]["all_results_match"]:
        print("ERROR: fastpath results diverged from reference",
              file=sys.stderr)
        rc = 1
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
        failures = check_against_baseline(report, baseline)
        for msg in failures:
            print(f"ERROR: perf regression — {msg}", file=sys.stderr)
        if failures:
            rc = 1
        else:
            print(f"baseline guard passed ({args.baseline})")
    return rc


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(hotpath_main())
