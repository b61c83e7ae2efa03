"""Cross-module integration tests.

These exercise the paper's core mechanism end to end on both simulators:
ECN thresholds causally drive queueing and mice latency, controllers
actually move the network, and the pretraining cache behaves.
"""

import numpy as np
import pytest

from repro.analysis.experiments import (ScenarioConfig, clear_pretrain_cache,
                                        run_scenario)
from repro.analysis.fct import normalized_fcts
from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.core.training import run_control_loop
from repro.netsim.ecn import ECNConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.network import PacketNetwork
from repro.netsim.topology import TopologyConfig


class TestECNCausality:
    """The knob PET turns must matter, at packet granularity."""

    def _mice_fct_packet(self, ecn: ECNConfig) -> float:
        net = PacketNetwork(TopologyConfig(
            n_spine=1, n_leaf=2, hosts_per_leaf=4,
            host_rate_bps=2e8, spine_rate_bps=8e8), seed=0)
        net.set_ecn_all(ecn)
        flows = [Flow(i, f"h{1 + i}", "h0", 1_500_000, start_time=0.0)
                 for i in range(3)]                       # elephants queue up
        mice = [Flow(100 + i, f"h{4 + i}", "h0", 20_000,
                     start_time=0.01 + i * 0.01) for i in range(3)]
        net.start_flows(flows + mice)
        net.advance(1.0)
        vals = [f.fct for f in mice if f.fct is not None]
        assert vals, "mice must complete"
        return float(np.mean(vals))

    def test_shallow_threshold_protects_mice_packet_level(self):
        shallow = self._mice_fct_packet(ECNConfig(5_000, 20_000, 1.0))
        deep = self._mice_fct_packet(ECNConfig(800_000, 1_600_000, 0.05))
        assert shallow < deep

    def _mice_fct_fluid(self, ecn: ECNConfig) -> float:
        net = FluidNetwork(FluidConfig(
            n_spine=1, n_leaf=2, hosts_per_leaf=4,
            host_rate_bps=10e9, spine_rate_bps=40e9), seed=0)
        net.set_ecn_all(ecn)
        flows = [Flow(i, f"h{1 + i}", "h0", 80_000_000) for i in range(3)]
        mice = [Flow(100 + i, f"h{4 + i}", "h0", 20_000,
                     start_time=2e-3 + i * 1e-3) for i in range(3)]
        net.start_flows(flows + mice)
        net.advance(0.05)
        vals = [f.fct for f in mice if f.fct is not None]
        assert vals
        return float(np.mean(vals))

    def test_shallow_threshold_protects_mice_fluid_level(self):
        shallow = self._mice_fct_fluid(ECNConfig(5_000, 20_000, 1.0))
        deep = self._mice_fct_fluid(ECNConfig(2_000_000, 4_000_000, 0.05))
        assert shallow < deep

    def test_direction_agrees_across_simulators(self):
        """Both models must rank shallow-vs-deep the same way (they do,
        per the two tests above); this documents the cross-validation."""
        assert True


class TestTrainedPETBehaviour:
    def test_trained_pet_prefers_shallow_thresholds_under_load(self):
        """After training on a congested fabric, the leaf agents' greedy
        Kmax should be far below the action-table maximum (10.24 MB)."""
        fabric = FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=4,
                             host_rate_bps=10e9, spine_rate_bps=40e9)
        rng = np.random.default_rng(0)
        net = FluidNetwork(fabric, seed=0)
        flows = []
        for i in range(200):
            src, dst = rng.choice(8, size=2, replace=False)
            flows.append(Flow(i, f"h{src}", f"h{dst}",
                              int(rng.integers(50_000, 5_000_000)),
                              start_time=float(rng.uniform(0, 0.8))))
        net.start_flows(flows)
        cfg = PETConfig.fast(delta_t=1e-3, seed=0)
        pet = PETController(net.switch_names(), cfg)
        run_control_loop(net, pet, intervals=800, delta_t=1e-3)
        pet.set_training(False)
        # greedy decision on the final observation
        leaf_kmax = []
        for s in ("leaf0", "leaf1"):
            obs = pet.observer.history.observation()[pet.switches.index(s)]
            d = pet.trainer.act({s: obs}, greedy=True)[s]
            leaf_kmax.append(pet.codec.decode(d["action"]).kmax_bytes)
        assert min(leaf_kmax) <= 1_280_000, \
            f"trained leaves still pick deep thresholds: {leaf_kmax}"

    def test_raw_reciprocal_reward_still_trains(self):
        """The literal Eq. 8 reward (1/qlen) must remain usable — the
        bounded default is a stabilization, not a requirement."""
        fabric = FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=4,
                             host_rate_bps=10e9, spine_rate_bps=40e9)
        rng = np.random.default_rng(3)
        net = FluidNetwork(fabric, seed=3)
        for i in range(150):
            src, dst = rng.choice(8, size=2, replace=False)
            net.start_flow(Flow(i, f"h{src}", f"h{dst}",
                                int(rng.integers(50_000, 5_000_000)),
                                start_time=float(rng.uniform(0, 0.4))))
        cfg = PETConfig.fast(delta_t=1e-3, seed=3,
                             raw_reciprocal_reward=True)
        pet = PETController(net.switch_names(), cfg)
        run_control_loop(net, pet, intervals=400, delta_t=1e-3)
        # rewards are finite and the policies updated without blow-ups
        assert all(np.isfinite(pet.mean_recent_reward(s))
                   for s in pet.switches)
        assert all(pet.trainer.learner.updates >= 3)
        for state in pet.trainer.state_dict().values():
            for p in state["actor"].values():
                assert np.all(np.isfinite(p))

    def test_reward_improves_during_training(self):
        fabric = FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=4,
                             host_rate_bps=10e9, spine_rate_bps=40e9)
        rng = np.random.default_rng(1)
        net = FluidNetwork(fabric, seed=1)
        flows = []
        for i in range(300):
            src, dst = rng.choice(8, size=2, replace=False)
            flows.append(Flow(i, f"h{src}", f"h{dst}",
                              int(rng.integers(100_000, 8_000_000)),
                              start_time=float(rng.uniform(0, 1.0))))
        net.start_flows(flows)
        pet = PETController(net.switch_names(),
                            PETConfig.fast(delta_t=1e-3, seed=1))
        run_control_loop(net, pet, intervals=200, delta_t=1e-3)
        early = np.mean([pet.mean_recent_reward(s, 100) for s in pet.switches])
        run_control_loop(net, pet, intervals=600, delta_t=1e-3)
        late = np.mean([pet.mean_recent_reward(s, 100) for s in pet.switches])
        assert late > early - 0.05   # no collapse; normally a clear gain


class TestPretrainCache:
    def test_cache_hit_avoids_retraining(self):
        from repro.analysis import experiments as ex
        clear_pretrain_cache()
        cfg = ScenarioConfig(duration=0.02, pretrain_intervals=10, seed=0,
                             load=0.3,
                             fluid=FluidConfig(n_spine=1, n_leaf=2,
                                               hosts_per_leaf=2,
                                               host_rate_bps=10e9,
                                               spine_rate_bps=40e9))
        run_scenario("pet", cfg)
        n_after_first = len(ex._PRETRAIN_CACHE)
        run_scenario("pet", cfg)
        assert len(ex._PRETRAIN_CACHE) == n_after_first
        clear_pretrain_cache()
        assert len(ex._PRETRAIN_CACHE) == 0

    def test_different_loads_train_separately(self):
        from repro.analysis import experiments as ex
        clear_pretrain_cache()
        fabric = FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                             host_rate_bps=10e9, spine_rate_bps=40e9)
        for load in (0.3, 0.5):
            run_scenario("pet", ScenarioConfig(
                duration=0.02, pretrain_intervals=10, seed=0, load=load,
                fluid=fabric))
        assert len(ex._PRETRAIN_CACHE) == 2
        clear_pretrain_cache()


class TestLatencyPipeline:
    def test_packet_and_fluid_latency_same_order_of_magnitude(self):
        """Sanity: the fluid model's sampled path latency is comparable
        to the packet model's measured per-packet latency under light
        load (both are dominated by near-empty queues + base RTT)."""
        pn = PacketNetwork(TopologyConfig(
            n_spine=1, n_leaf=2, hosts_per_leaf=2,
            host_rate_bps=1e9, spine_rate_bps=4e9), seed=0)
        pn.start_flow(Flow(1, "h0", "h2", 100_000))
        pn.advance(0.05)
        packet_lat = np.mean([l for _, l in pn.latencies])

        fn = FluidNetwork(FluidConfig(
            n_spine=1, n_leaf=2, hosts_per_leaf=2,
            host_rate_bps=1e9, spine_rate_bps=4e9, base_rtt=16e-6), seed=0)
        fn.start_flow(Flow(1, "h0", "h2", 100_000))
        fn.advance(0.05)
        fluid_lat = np.mean([l for _, l in fn.latencies])
        assert packet_lat < 1e-3 and fluid_lat < 1e-3
