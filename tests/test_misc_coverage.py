"""Edge-case tests across modules (paths not covered elsewhere)."""

import numpy as np
import pytest

from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.netsim.ecn import ECNConfig
from repro.netsim.engine import Simulator
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.link import OutputPort
from repro.netsim.network import PacketNetwork
from repro.netsim.topology import TopologyConfig
from repro.traffic.patterns import PatternSchedule, PatternSegment
from tests.flow_rows import switch_rows
from tests.owner_tables import owner_tables


class _Sink:
    name = "sink"

    def receive(self, pkt):
        pass


class TestOutputPortMisc:
    def test_int_disabled_does_not_append(self):
        from repro.netsim.packet import Packet
        sim = Simulator()
        port = OutputPort(sim, "A", _Sink(), rate_bps=1e9, prop_delay=0.0,
                          int_enabled=False)
        p = Packet(flow_id=1, src="a", dst="sink", size_bytes=100)
        p.int_records = []
        port.send(p)
        sim.run()
        assert p.int_records == []

    def test_utilization_capacity_bytes_per_second(self):
        sim = Simulator()
        port = OutputPort(sim, "A", _Sink(), rate_bps=8e9, prop_delay=0.0)
        assert port.utilization_capacity() == pytest.approx(1e9)

    def test_set_ecn_without_marker_raises(self):
        sim = Simulator()
        port = OutputPort(sim, "A", _Sink(), rate_bps=1e9, prop_delay=0.0)
        with pytest.raises(RuntimeError):
            port.set_ecn(ECNConfig(1, 2, 0.5))

    def test_default_port_name(self):
        sim = Simulator()
        port = OutputPort(sim, "A", _Sink(), rate_bps=1e9, prop_delay=0.0)
        assert "A" in port.name and "sink" in port.name


class TestPacketNetworkNCMHelpers:
    def _net(self):
        return PacketNetwork(TopologyConfig(n_spine=1, n_leaf=2,
                                            hosts_per_leaf=2,
                                            host_rate_bps=1e8,
                                            spine_rate_bps=4e8), seed=0)

    def _observed(self, net):
        return sum(len(port.queue.flow_obs)
                   for sw in net.topology.switches() for port in sw.ports)

    def test_prune_flow_observations(self):
        """A collection drops the queues' observations of finished flows."""
        net = self._net()
        net.start_flow(Flow(1, "h0", "h2", 30_000))
        net.advance(0.05)
        assert net.flows[1].done and self._observed(net) > 0
        stats = net.queue_stats()
        assert self._observed(net) == 0
        assert not any(switch_rows(st) for st in stats.values())

    def test_prune_keeps_fresh_observations(self):
        """... and keeps those of the flows still active."""
        net = self._net()
        net.start_flow(Flow(1, "h0", "h2", 500_000))
        net.advance(0.005)
        before = self._observed(net)
        stats = net.queue_stats()
        assert self._observed(net) == before > 0
        assert 1 in switch_rows(stats["leaf0"])

    def test_active_flow_count(self):
        net = self._net()
        net.start_flow(Flow(1, "h0", "h2", 10_000_000))
        net.advance(0.001)
        assert net.active_flow_count() == 1
        net.advance(5.0)
        assert net.active_flow_count() == 0


class TestFluidRoutingMisc:
    def test_intra_leaf_path_has_single_hop(self):
        net = FluidNetwork(FluidConfig(n_spine=2, n_leaf=2, hosts_per_leaf=4,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9), seed=0)
        net.start_flow(Flow(1, "h0", "h1", 1_000_000))
        net.advance(net.config.step_dt)
        tab, = owner_tables(net)
        (idx, fid), = tab.fid_at.items()
        assert fid == 1
        path = tab.f_path[idx]
        assert (path >= 0).sum() == 1
        assert tab.f_spine[idx] == -1

    def test_cross_leaf_path_has_three_hops(self):
        net = FluidNetwork(FluidConfig(n_spine=2, n_leaf=2, hosts_per_leaf=4,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9), seed=0)
        net.start_flow(Flow(1, "h0", "h4", 1_000_000))
        net.advance(net.config.step_dt)
        tab, = owner_tables(net)
        (idx, fid), = tab.fid_at.items()
        assert fid == 1
        assert (tab.f_path[idx] >= 0).sum() == 3
        assert tab.f_spine[idx] >= 0

    def test_host_index_accepts_ints(self):
        assert FluidNetwork._host_index(5) == 5
        assert FluidNetwork._host_index("h7") == 7


class TestPatternScheduleMisc:
    def test_workload_at_outside_schedule_is_none(self):
        sched = PatternSchedule([PatternSegment("websearch", 1.0, 2.0, 0.5)])
        assert sched.workload_at(0.5) is None
        assert sched.workload_at(3.5) is None
        assert sched.workload_at(1.5) == "websearch"

    def test_total_duration(self):
        sched = PatternSchedule([
            PatternSegment("websearch", 0.0, 1.0, 0.5),
            PatternSegment("datamining", 1.0, 2.5, 0.5)])
        assert sched.total_duration() == pytest.approx(3.5)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            PatternSchedule([])


class TestPETControllerMisc:
    def test_mean_recent_reward_empty_is_zero(self):
        pet = PETController(["leaf0"], PETConfig(seed=0))
        assert pet.mean_recent_reward("leaf0") == 0.0

    @pytest.mark.parametrize("make", ["pet", "acc"])
    def test_reward_log_is_bounded(self, make):
        """One float per switch per tick for ever is a leak at hours of
        1 ms ticks; ``mean_recent_reward`` only reads a trailing window."""
        from repro.baselines.acc import ACCConfig, ACCController
        from repro.core.reward import REWARD_LOG_LEN
        from repro.core.state import TelemetryColumns

        net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9), seed=0)
        net.start_flows([Flow(i, f"h{i}", "h3", 10**9) for i in range(3)])
        ctl = (PETController(["leaf1"], PETConfig(seed=0)) if make == "pet"
               else ACCController(["leaf1"], ACCConfig(seed=0)))
        ctl.set_training(False)
        samples = []
        for _ in range(8):
            net.advance(2e-4)
            samples.append({"leaf1": net.queue_stats()["leaf1"]})
        rewards = ctl.observer.reward.compute_fleet(
            TelemetryColumns([st["leaf1"] for st in samples])).tolist()
        assert len(set(rewards)) > 1
        for k in range(10_000):
            ctl.decide(samples[k % 8], k * 1e-3, net)
        assert REWARD_LOG_LEN >= 100
        assert len(ctl._reward_log["leaf1"]) == REWARD_LOG_LEN
        history = [rewards[k % 8] for k in range(10_000)]
        for window in (1, 50, 100):
            assert ctl.mean_recent_reward("leaf1", window) == \
                float(np.mean(history[-window:]))
        assert ctl.mean_recent_reward("leaf1") == float(np.mean(history[-50:]))

    def test_update_stats_are_bounded(self):
        """Online training appends one per-switch stats dict per PPO
        update; at 1 ms ticks that grows by hundreds of MB an hour, so
        only the last ``REWARD_LOG_LEN`` updates are kept."""
        from repro.core.reward import REWARD_LOG_LEN

        net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9), seed=0)
        net.start_flows([Flow(i, f"h{i}", "h3", 10**9) for i in range(3)])
        samples = []
        for _ in range(8):
            net.advance(2e-4)
            samples.append({"leaf1": net.queue_stats()["leaf1"]})
        pet = PETController(["leaf1"], PETConfig(seed=0, update_interval=1,
                                                 ppo_epochs=1))
        returned = []
        update = pet.trainer.update

        def spy(*args):
            returned.append(update(*args))
            return returned[-1]

        pet.trainer.update = spy
        for k in range(REWARD_LOG_LEN + 40):
            pet.decide(samples[k % 8], k * 1e-3, net)
        assert len(returned) == REWARD_LOG_LEN + 40
        assert len(pet.update_stats) == REWARD_LOG_LEN
        assert all(a is b for a, b in zip(pet.update_stats,
                                          returned[-REWARD_LOG_LEN:]))

    def test_reset_episode_clears_history_and_pending(self):
        net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9), seed=0)
        pet = PETController(net.switch_names(), PETConfig(seed=0))
        net.advance(1e-3)
        pet.decide(net.queue_stats(), net.now, net)
        assert pet._pending
        pet.reset_episode()
        assert not pet._pending
        assert not pet.observer.history.observation().any()
        assert not pet.observer.ncm.retained_slots().any()

    def test_decide_tolerates_missing_switch_stats(self):
        pet = PETController(["leaf0", "leaf1"], PETConfig(seed=0))

        class Net:
            def set_ecn(self, s, c):
                pass

        net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9), seed=0)
        net.advance(1e-3)
        stats = net.queue_stats()
        partial = {"leaf0": stats["leaf0"]}   # leaf1 missing this interval
        applied = pet.decide(partial, net.now, net)
        assert set(applied) == {"leaf0"}


class TestDCQCNAlphaTimer:
    def test_alpha_decays_without_cnps(self):
        net = PacketNetwork(TopologyConfig(n_spine=1, n_leaf=2,
                                           hosts_per_leaf=2,
                                           host_rate_bps=1e8,
                                           spine_rate_bps=4e8), seed=0)
        # thresholds so deep nothing ever marks
        net.set_ecn_all(ECNConfig(50_000_000, 90_000_000, 0.01))
        f = Flow(1, "h0", "h2", 5_000_000)
        net.start_flow(f)
        net.advance(0.01)
        t = net.topology.host(0).transport
        cc = t.senders[1].extra["cc"]
        assert cc.alpha < 1.0      # started at 1.0, decayed by the timer


class TestEngineBoundary:
    def test_schedule_at_now_is_allowed(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda: sim.schedule_at(sim.now, hits.append, 1))
        sim.run()
        assert hits == [1]
