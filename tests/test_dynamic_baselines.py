"""Tests for the dynamic (rule-based) ECN baselines AMT and QAECN."""

import numpy as np
import pytest

from repro.analysis.experiments import build_scheme
from repro.baselines.dynamic_ecn import (AMTConfig, AMTController,
                                         QAECNConfig, QAECNController)
from repro.core.training import run_control_loop
from repro.netsim.ecn import ECNConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.network import QueueStats


def mk_stats(switch="leaf0", qlen=0, tx_bytes=0, capacity=1e9, n_queues=1):
    return QueueStats(switch=switch, interval=1e-3, qlen_bytes=qlen,
                      max_port_qlen_bytes=qlen, avg_qlen_bytes=qlen,
                      tx_bytes=tx_bytes, tx_marked_bytes=0, dropped_pkts=0,
                      capacity_bps=capacity, ecn=None, n_queues=n_queues)


class DummyNetwork:
    def __init__(self):
        self.applied = {}

    def set_ecn(self, switch, config):
        self.applied[switch] = config


class TestAMT:
    def test_increases_threshold_when_underutilized(self):
        amt = AMTController(AMTConfig(initial_kmax=100_000,
                                      increase_step=10_000))
        net = DummyNetwork()
        # utilization 0 -> raise
        cfg1 = amt.decide({"leaf0": mk_stats(tx_bytes=0)}, 0.0, net)["leaf0"]
        assert cfg1.kmax_bytes == 110_000
        cfg2 = amt.decide({"leaf0": mk_stats(tx_bytes=0)}, 1.0, net)["leaf0"]
        assert cfg2.kmax_bytes == 120_000

    def test_decreases_threshold_at_target(self):
        amt = AMTController(AMTConfig(initial_kmax=100_000,
                                      target_utilization=0.5,
                                      decrease_factor=0.8))
        net = DummyNetwork()
        # tx 125000 bytes in 1ms over 1 Gbps = 100% utilization
        cfg = amt.decide({"leaf0": mk_stats(tx_bytes=125_000)}, 0.0,
                         net)["leaf0"]
        assert cfg.kmax_bytes == 80_000

    def test_bounds_respected(self):
        amt = AMTController(AMTConfig(initial_kmax=30_000,
                                      kmax_min_bytes=20_000,
                                      kmax_max_bytes=50_000,
                                      increase_step=100_000))
        net = DummyNetwork()
        cfg = amt.decide({"leaf0": mk_stats()}, 0.0, net)["leaf0"]
        assert cfg.kmax_bytes == 50_000
        for _ in range(20):
            cfg = amt.decide({"leaf0": mk_stats(tx_bytes=10**9)}, 0.0,
                             net)["leaf0"]
        assert cfg.kmax_bytes == 20_000

    def test_per_switch_state_independent(self):
        amt = AMTController(AMTConfig(initial_kmax=100_000,
                                      increase_step=10_000,
                                      target_utilization=0.5))
        net = DummyNetwork()
        out = amt.decide({"leaf0": mk_stats(switch="leaf0", tx_bytes=0),
                          "leaf1": mk_stats(switch="leaf1",
                                            tx_bytes=125_000)}, 0.0, net)
        assert out["leaf0"].kmax_bytes > out["leaf1"].kmax_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            AMTController(AMTConfig(target_utilization=0.0))
        with pytest.raises(ValueError):
            AMTController(AMTConfig(kmax_min_bytes=100, kmax_max_bytes=100))


class TestQAECN:
    def test_threshold_tracks_queue_ewma(self):
        q = QAECNController(QAECNConfig(gain=0.5, initial_kmax=100_000))
        net = DummyNetwork()
        cfg = q.decide({"leaf0": mk_stats(qlen=400_000)}, 0.0, net)["leaf0"]
        # ewma = 0.5*100k + 0.5*400k = 250k
        assert cfg.kmax_bytes == 250_000

    def test_idle_queue_shrinks_threshold(self):
        q = QAECNController(QAECNConfig(gain=0.5, initial_kmax=400_000,
                                        kmax_min_bytes=20_000))
        net = DummyNetwork()
        for _ in range(20):
            cfg = q.decide({"leaf0": mk_stats(qlen=0)}, 0.0, net)["leaf0"]
        assert cfg.kmax_bytes == 20_000

    def test_per_queue_normalization(self):
        q = QAECNController(QAECNConfig(gain=1.0))
        net = DummyNetwork()
        cfg = q.decide({"leaf0": mk_stats(qlen=800_000, n_queues=8)}, 0.0,
                       net)["leaf0"]
        # tracks 800k/8 = 100k per queue
        assert cfg.kmax_bytes == 100_000

    def test_validation(self):
        with pytest.raises(ValueError):
            QAECNController(QAECNConfig(gain=0.0))


class TestOnSimulator:
    def _net(self, seed=0):
        net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9), seed=seed)
        rng = np.random.default_rng(seed)
        for i in range(30):
            s, d = rng.choice(4, 2, replace=False)
            net.start_flow(Flow(i, f"h{s}", f"h{d}",
                                int(rng.integers(100_000, 5_000_000)),
                                start_time=float(rng.uniform(0, 0.02))))
        return net

    @pytest.mark.parametrize("scheme", ["amt", "qaecn"])
    def test_runs_through_control_loop(self, scheme):
        net = self._net()
        ctrl = build_scheme(scheme, net.switch_names())
        result = run_control_loop(net, ctrl, intervals=30, delta_t=1e-3)
        assert result.intervals == 30
        # thresholds were actually installed on the simulator
        cfgs = {net._switch_ecn[net._switch_id(s)]
                for s in net.switch_names()}
        assert all(isinstance(c, ECNConfig) for c in cfgs)

    def test_qaecn_adapts_to_congestion(self):
        """Under sustained congestion QAECN's threshold moves up from its
        floor; when idle it falls back."""
        net = self._net(seed=1)
        ctrl = QAECNController(QAECNConfig(gain=0.5))
        run_control_loop(net, ctrl, intervals=10, delta_t=1e-3)
        busy_kmax = max(v for v in ctrl._ewma.values())
        run_control_loop(net, ctrl, intervals=200, delta_t=1e-3)  # drains
        idle_kmax = max(v for v in ctrl._ewma.values())
        assert idle_kmax <= busy_kmax
