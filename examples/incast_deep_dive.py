"""Incast deep dive: watch the NCM detect many-to-one bursts and PET react.

This example reproduces the paper's motivating scenario (§3.2): a
partition–aggregate job repeatedly fans 24 worker responses into one
aggregator.  It runs the fluid simulator step by step and prints, per
tuning interval, what the Network Condition Monitor computes (incast
degree, mice/elephant ratio) and what ECN threshold the trained PET
agent applies at the congested leaf.

Run:  python examples/incast_deep_dive.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.core.training import run_control_loop
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.traffic.generator import PoissonTrafficGenerator, TrafficConfig
from repro.traffic.incast import IncastConfig, IncastGenerator
from repro.traffic.workloads import WEB_SEARCH

FABRIC = FluidConfig(n_spine=2, n_leaf=4, hosts_per_leaf=8,
                     host_rate_bps=10e9, spine_rate_bps=40e9)
DELTA_T = 1e-3
AGGREGATOR = "h0"          # all incast rounds converge on leaf0's h0


def build_network(seed: int, duration: float) -> FluidNetwork:
    net = FluidNetwork(FABRIC, seed=seed)
    rng = np.random.default_rng(seed + 1)
    gen = PoissonTrafficGenerator(net.host_names(), WEB_SEARCH, rng=rng)
    flows = gen.generate(TrafficConfig(load=0.4, duration=duration,
                                       host_rate_bps=FABRIC.host_rate_bps))
    inc = IncastGenerator(net.host_names(), rng=rng,
                          first_flow_id=gen.next_flow_id())
    flows += inc.generate(IncastConfig(fan_in=24, response_bytes=100_000,
                                       period=8e-3, duration=duration),
                          aggregator=AGGREGATOR)
    net.start_flows(flows)
    return net


def main() -> None:
    cfg = PETConfig.fast(beta1=0.3, beta2=0.7, delta_t=DELTA_T, seed=0)

    print("offline pre-training PET on the incast-heavy mix ...")
    train_net = build_network(seed=100, duration=1.2)
    pet = PETController(train_net.switch_names(), cfg)
    run_control_loop(train_net, pet, intervals=1200, delta_t=DELTA_T)
    pet.advance_exploration(1200)
    pet.reset_episode()

    print("\nlive run — leaf0 hosts the aggregator; every incast round "
          "should spike the NCM's incast degree:\n")
    net = build_network(seed=7, duration=0.04)
    leaf0 = pet.switches.index("leaf0")
    print(f"{'t(ms)':>6} {'incast':>6} {'M/E':>5} {'qlen(KB)':>9} "
          f"{'Kmax(KB)':>9} {'Pmax':>5} {'reward':>7}")
    for i in range(40):
        net.advance(DELTA_T)
        stats = net.queue_stats()
        applied = pet.decide(stats, net.now, net)
        incast, flow_ratio, _ = pet.observer.ncm.analyze()
        ecn = applied.get("leaf0") or pet.ecn_cm["leaf0"].current
        print(f"{net.now*1e3:6.1f} {incast[leaf0]:6d} "
              f"{flow_ratio[leaf0]:5.2f} "
              f"{stats['leaf0'].qlen_bytes/1e3:9.1f} "
              f"{ecn.kmax_bytes/1e3:9.0f} {ecn.pmax:5.2f} "
              f"{pet.mean_recent_reward('leaf0', 1):7.3f}")

    finished = [f for f in net.finished_flows if f.tag == "incast"]
    if finished:
        fcts = [f.fct * 1e3 for f in finished]
        print(f"\n{len(finished)} incast responses finished; "
              f"FCT avg {np.mean(fcts):.2f} ms, p99 "
              f"{np.percentile(fcts, 99):.2f} ms")
    ncm = pet.observer.ncm
    print(f"NCM observation memory at leaf0: {ncm.memory_bytes()[leaf0]} bytes "
          f"({ncm.cleanups_scheduled[leaf0]} scheduled cleanups, "
          f"{ncm.cleanups_threshold[leaf0]} threshold cleanups)")


if __name__ == "__main__":
    main()
