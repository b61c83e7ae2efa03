"""Tests for the multi-queue adaptation (paper §4.5.2)."""

import numpy as np
import pytest

from repro.core.config import PETConfig
from repro.core.multiqueue import MultiQueuePETController
from repro.core.state import TelemetryColumns
from repro.netsim.ecn import ECNConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.network import PacketNetwork
from repro.netsim.topology import TopologyConfig


def fluid_net(seed=0):
    return FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                    host_rate_bps=10e9,
                                    spine_rate_bps=40e9), seed=seed)


def packet_net(seed=0):
    return PacketNetwork(TopologyConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                        host_rate_bps=1e8,
                                        spine_rate_bps=4e8), seed=seed)


class TestPerPortInterfaces:
    def test_fluid_port_stats_cover_all_queues(self):
        net = fluid_net()
        net.advance(1e-3)
        ps = net.port_stats()
        # every (switch, local idx) with n_queues == 1
        total = sum(len(net.switch_queue_indices(s))
                    for s in net.switch_names())
        assert len(ps) == total
        assert all(st.n_queues == 1 for st in ps.values())

    def test_fluid_set_ecn_port_targets_one_queue(self):
        net = fluid_net()
        cfg = ECNConfig(123, 456, 0.5)
        net.set_ecn_port("leaf0", 0, cfg)
        qs = net.switch_queue_indices("leaf0")
        assert net.kmax[qs[0]] == 456
        assert net.kmax[qs[1]] != 456

    def test_packet_port_stats_cover_all_ports(self):
        net = packet_net()
        net.start_flow(Flow(1, "h0", "h2", 20_000))
        net.advance(0.05)
        ps = net.port_stats()
        total = sum(len(sw.ports) for sw in net.topology.switches())
        assert len(ps) == total
        # the flow's path ports carry its bytes
        assert any(st.tx_bytes >= 20_000 for st in ps.values())

    def test_packet_set_ecn_port(self):
        net = packet_net()
        cfg = ECNConfig(111, 222, 0.9)
        net.set_ecn_port("leaf0", 0, cfg)
        sw = net.topology.node("leaf0")
        assert sw.ports[0].marker.config == cfg
        assert sw.ports[1].marker.config != cfg

    def test_packet_set_ecn_port_rejects_host(self):
        net = packet_net()
        with pytest.raises(TypeError):
            net.set_ecn_port("h0", 0, ECNConfig(1, 2, 0.5))


class TestMultiQueueController:
    def _drive(self, ctrl, net, intervals=5, dt=1e-3):
        applied_all = {}
        for _ in range(intervals):
            net.advance(dt)
            port_stats = net.port_stats()
            switch_stats = net.queue_stats()
            applied = ctrl.decide(port_stats, switch_stats, net.now, net)
            applied_all.update(applied)
        return applied_all

    def test_per_queue_actions_applied(self):
        net = fluid_net()
        net.start_flows([Flow(i, "h0", "h2", 2_000_000) for i in range(3)])
        ctrl = MultiQueuePETController(net.switch_names(),
                                       PETConfig(seed=0, update_interval=3))
        applied = self._drive(ctrl, net)
        # every queue of every switch got its own configuration
        total = sum(len(net.switch_queue_indices(s))
                    for s in net.switch_names())
        assert len(applied) == total
        for (s, idx), cfg in applied.items():
            qs = net.switch_queue_indices(s)
            assert net.kmax[qs[idx]] == cfg.kmax_bytes

    def test_queues_can_diverge_within_a_switch(self):
        net = fluid_net()
        net.start_flows([Flow(i, "h0", "h2", 5_000_000) for i in range(3)])
        ctrl = MultiQueuePETController(net.switch_names(),
                                       PETConfig(seed=1, update_interval=100))
        applied = self._drive(ctrl, net, intervals=8)
        by_switch = {}
        for (s, idx), cfg in applied.items():
            by_switch.setdefault(s, set()).add(
                (cfg.kmax_bytes, round(cfg.pmax, 3)))
        # with a stochastic policy across many queues, at least one switch
        # ends up with heterogeneous per-queue settings
        assert any(len(v) > 1 for v in by_switch.values())

    def test_training_updates_agents(self):
        net = fluid_net()
        net.start_flows([Flow(i, "h0", "h2", 3_000_000) for i in range(2)])
        ctrl = MultiQueuePETController(net.switch_names(),
                                       PETConfig(seed=2, update_interval=2))
        self._drive(ctrl, net, intervals=5)
        assert all(ctrl.trainer.learner.updates >= 1)

    def test_eval_mode_freezes_buffers(self):
        net = fluid_net()
        ctrl = MultiQueuePETController(net.switch_names(),
                                       PETConfig(seed=3, update_interval=2))
        ctrl.set_training(False)
        self._drive(ctrl, net, intervals=4)
        assert not ctrl.trainer.learner.length.any()
        assert not ctrl.trainer.learner.updates.any()

    def test_checkpoint_roundtrip(self):
        net = fluid_net()
        a = MultiQueuePETController(net.switch_names(), PETConfig(seed=4))
        b = MultiQueuePETController(net.switch_names(), PETConfig(seed=5))
        b.load_state_dict(a.state_dict())
        obs = np.zeros(a.trainer.config.obs_dim)
        np.testing.assert_allclose(a.trainer.learner.probs([0], obs),
                                   b.trainer.learner.probs([0], obs))

    def test_queues_are_fixed_by_the_first_interval(self):
        """The first ``port_stats`` lays out the rows of the input
        matrix: later intervals may report fewer queues, not new ones."""
        net = fluid_net()
        ctrl = MultiQueuePETController(net.switch_names(), PETConfig(seed=7))
        net.advance(1e-3)
        first = dict(list(net.port_stats().items())[:-1])
        assert len(ctrl.decide(first, net.queue_stats(), net.now, net)) \
            == len(first)
        net.advance(1e-3)
        fewer = dict(list(first.items())[1:])
        assert set(ctrl.decide(fewer, net.queue_stats(), net.now, net)) \
            == set(fewer)
        net.advance(1e-3)
        with pytest.raises(ValueError):
            ctrl.decide(net.port_stats(), net.queue_stats(), net.now, net)

    def test_requires_switches(self):
        with pytest.raises(ValueError):
            MultiQueuePETController([])

    def test_hot_queue_gets_pressure_signal(self):
        """The congested queue's reward is lower than an idle queue's,
        so the shared model can differentiate rows of the matrix."""
        net = fluid_net()
        net.start_flows([Flow(i, f"h{i % 2}", "h2", 50_000_000)
                         for i in range(4)])
        ctrl = MultiQueuePETController(net.switch_names(),
                                       PETConfig(seed=6))
        net.advance(2e-3)
        port_stats = net.port_stats()
        hot = [st for st in port_stats.values() if st.avg_qlen_bytes > 1e4]
        cold = [st for st in port_stats.values() if st.avg_qlen_bytes < 1e2]
        assert hot and cold
        hot_r, cold_r = ctrl.reward.compute_fleet(
            TelemetryColumns([hot[0], cold[0]]))
        assert hot_r < cold_r
