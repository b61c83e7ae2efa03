"""Multi-queue PET (paper §4.5.2): per-queue thresholds from one model.

A hotspot scenario: three elephants converge on one host while the rest
of the fabric idles. The single-queue controller must pick one threshold
for every queue of a switch; the multi-queue adaptation lets the shared
switch model give the hot egress queue a shallow threshold while leaving
cold queues deep. This example trains the multi-queue controller and
prints the per-queue thresholds it ends up applying at the hot leaf.

Run:  python examples/multiqueue_tuning.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.core.config import PETConfig
from repro.core.multiqueue import MultiQueuePETController
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork

FABRIC = FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=4,
                     host_rate_bps=10e9, spine_rate_bps=40e9)
DELTA_T = 1e-3
HOT_HOST = "h0"       # everything converges here (leaf0, local queue 0)
TRAIN_INTERVALS = 1000
EVAL_INTERVALS = 30


def build_network(seed: int, n_elephants: int = 3,
                  horizon: float = 1.0) -> FluidNetwork:
    net = FluidNetwork(FABRIC, seed=seed)
    rng = np.random.default_rng(seed)
    fid = 0
    t = 0.0
    while t < horizon:
        for _ in range(n_elephants):
            src = f"h{4 + rng.integers(4)}"          # remote leaf workers
            net.start_flow(Flow(fid, src, HOT_HOST, 5_000_000,
                                start_time=t))
            fid += 1
        # sparse background mice elsewhere
        net.start_flow(Flow(fid, "h5", "h2", 20_000, start_time=t))
        fid += 1
        t += 5e-3
    return net


def main() -> None:
    cfg = PETConfig.fast(beta1=0.3, beta2=0.7, delta_t=DELTA_T, seed=0)
    ctrl = MultiQueuePETController(["leaf0", "leaf1", "spine0"], cfg)

    print("training the multi-queue controller on the hotspot mix ...")
    net = build_network(seed=10, horizon=1.0)
    for i in range(TRAIN_INTERVALS):
        net.advance(DELTA_T)
        port_stats = net.port_stats()
        switch_stats = net.queue_stats()
        ctrl.decide(port_stats, switch_stats, net.now, net)
    ctrl.advance_exploration(TRAIN_INTERVALS)

    print("\nevaluation: per-queue thresholds at leaf0 "
          "(queue 0 serves the hot host)\n")
    ctrl.set_training(False)
    net = build_network(seed=3, horizon=0.03)
    last = {}
    hot_q, cold_q = [], []
    for i in range(EVAL_INTERVALS):
        net.advance(DELTA_T)
        port_stats = net.port_stats()
        switch_stats = net.queue_stats()
        applied = ctrl.decide(port_stats, switch_stats, net.now, net)
        last = {k: v for k, v in applied.items() if k[0] == "leaf0"}
        hot_q.append(port_stats[("leaf0", 0)].qlen_bytes)
        cold_q.append(port_stats[("leaf0", 2)].qlen_bytes)

    print(f"{'queue':>8} {'role':>6} {'Kmin(KB)':>9} {'Kmax(KB)':>9} "
          f"{'Pmax':>5}")
    for (s, idx), cfg_q in sorted(last.items()):
        role = "HOT" if idx == 0 else "cold"
        print(f"{idx:8d} {role:>6} {cfg_q.kmin_bytes / 1e3:9.0f} "
              f"{cfg_q.kmax_bytes / 1e3:9.0f} {cfg_q.pmax:5.2f}")
    print(f"\nhot queue mean occupancy: {np.mean(hot_q) / 1e3:.1f} KB, "
          f"cold queue: {np.mean(cold_q) / 1e3:.1f} KB")


if __name__ == "__main__":
    main()
