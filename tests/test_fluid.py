"""Tests for the fluid-model simulator."""

from dataclasses import replace

import numpy as np
import pytest

from repro.netsim.ecn import ECNConfig
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.shard import ShardedFluidNetwork
from tests.owner_tables import owner_tables


def mk_net(seed=0, **kw):
    defaults = dict(n_spine=2, n_leaf=2, hosts_per_leaf=4,
                    host_rate_bps=10e9, spine_rate_bps=40e9)
    defaults.update(kw)
    return FluidNetwork(FluidConfig(**defaults), seed=seed)


class TestBasics:
    def test_names_match_packet_model_convention(self):
        net = mk_net()
        assert net.switch_names() == ["leaf0", "leaf1", "spine0", "spine1"]
        assert net.host_names()[0] == "h0"
        assert len(net.host_names()) == 8

    def test_duplicate_flow_rejected(self):
        net = mk_net()
        net.start_flow(Flow(1, "h0", "h4", 1_000_000))
        with pytest.raises(ValueError):
            net.start_flow(Flow(1, "h0", "h4", 1_000_000))

    def test_unknown_host_rejected(self):
        net = mk_net()
        with pytest.raises(ValueError):
            net.start_flow(Flow(1, "h99", "h0", 1000))

    def test_advance_validates(self):
        with pytest.raises(ValueError):
            mk_net().advance(0.0)

    def test_single_flow_completes_near_ideal_time(self):
        net = mk_net()
        f = Flow(1, "h0", "h4", 10_000_000)   # 10 MB at 10 Gbps = 8 ms
        net.start_flow(f)
        net.advance(0.05)
        assert f.done
        assert f.fct == pytest.approx(8e-3, rel=0.3)

    def test_intra_leaf_flow_completes(self):
        net = mk_net()
        f = Flow(1, "h0", "h1", 5_000_000)
        net.start_flow(f)
        net.advance(0.05)
        assert f.done

    def test_deferred_start(self):
        net = mk_net()
        f = Flow(1, "h0", "h4", 1_000_000, start_time=0.01)
        net.start_flow(f)
        net.advance(0.005)
        assert not f.done
        net.advance(0.05)
        assert f.done
        assert f.finish_time > 0.01


class TestConservationAndSharing:
    def test_nic_caps_aggregate_send_rate(self):
        """Many flows from one host cannot exceed the host line rate."""
        net = mk_net()
        flows = [Flow(i, "h0", f"h{4 + i % 4}", 50_000_000) for i in range(8)]
        net.start_flows(flows)
        net.advance(5e-3)
        stats = net.queue_stats()
        # leaf0's uplink tx cannot exceed what one host can inject (plus
        # small integration slack)
        line_Bps = 10e9 / 8
        interval = stats["leaf0"].interval
        assert stats["leaf0"].tx_bytes <= line_Bps * interval * 1.2

    def test_completed_bytes_bounded_by_capacity(self):
        net = mk_net()
        f = Flow(1, "h0", "h4", 100_000_000)
        net.start_flow(f)
        net.advance(1e-3)
        # cannot have delivered more than line-rate * time
        delivered = f.size_bytes - owner_tables(net)[0].f_remaining[0]
        assert delivered <= 10e9 / 8 * 1.2e-3

    def test_flow_slots_reused(self):
        net = mk_net()
        for i in range(5):
            net.start_flow(Flow(i, "h0", "h4", 10_000, start_time=i * 1e-3))
        net.advance(0.05)
        assert all(f.done for f in net.flow_objs.values())
        assert owner_tables(net)[0].n_flows <= 5

    def test_full_table_with_free_slots_does_not_grow(self):
        """Four flows fill a four-slot table and finish; a fifth takes a
        recycled slot — the table at its high-water mark must not double."""
        net = mk_net(initial_flow_capacity=4)
        net.start_flows([Flow(i, f"h{i}", "h4", 10_000) for i in range(4)])
        net.advance(2e-3)
        assert len(net.finished_flows) == 4
        assert len(owner_tables(net)[0].free) == 4
        net.start_flow(Flow(4, "h0", "h4", 10_000, start_time=net.now))
        net.advance(2e-3)
        assert len(net.finished_flows) == 5
        assert net._table.cap == 4

    def test_short_flows_leave_no_bookkeeping_behind(self):
        """Several hundred short flows through a 16-slot table: the slot
        map tracks the live flows, not the flows ever started (the
        fat-tree twin: ``tests/test_shard.py``)."""
        net = mk_net(initial_flow_capacity=16)
        fid = 0
        for wave in range(40):
            net.start_flows([Flow(fid + k, f"h{(wave + k) % 8}",
                                  f"h{(wave + k + 4) % 8}", 20_000,
                                  start_time=net.now) for k in range(10)])
            fid += 10
            net.advance(2e-3)       # each wave finishes before the next
        net.start_flows([Flow(fid + k, f"h{k}", f"h{k + 4}", 10**9,
                              start_time=net.now) for k in range(3)])
        net.advance(net.config.step_dt)
        assert len(net.finished_flows) == 400
        assert net._table.cap == 16
        tab, = owner_tables(net)
        live = int(tab.f_active.sum())
        assert live == 3 == len(tab.fid_at)
        assert tab.n_flows - len(tab.free) == live
        # nothing but the caller-visible flow record grows with history
        assert {k for k, v in vars(net).items()
                if isinstance(v, dict) and len(v) > 16} == {"flow_objs"}


class TestQueueDynamics:
    def test_overload_builds_queue(self):
        net = mk_net()
        net.set_ecn_all(ECNConfig(5_000_000, 8_000_000, 0.01))  # barely mark
        flows = [Flow(i, f"h{i}", "h4", 50_000_000) for i in range(3)]
        net.start_flows(flows)
        net.advance(2e-3)
        stats = net.queue_stats()
        assert stats["leaf1"].max_port_qlen_bytes > 100_000

    def test_queue_drains_after_flows_finish(self):
        net = mk_net()
        flows = [Flow(i, f"h{i}", "h4", 500_000) for i in range(3)]
        net.start_flows(flows)
        net.advance(0.05)
        net.queue_stats()
        net.advance(0.01)
        stats = net.queue_stats()
        assert all(f.done for f in flows)
        assert stats["leaf1"].qlen_bytes < 1_000

    def test_lower_ecn_threshold_means_shorter_queue(self):
        def avg_queue(ecn):
            net = mk_net(seed=1)
            net.set_ecn_all(ecn)
            flows = [Flow(i, f"h{i}", "h4", 80_000_000) for i in range(3)]
            net.start_flows(flows)
            net.advance(5e-3)
            return net.queue_stats()["leaf1"].avg_qlen_bytes

        low = avg_queue(ECNConfig(5_000, 20_000, 1.0))
        high = avg_queue(ECNConfig(2_000_000, 4_000_000, 0.05))
        assert low < high

    def test_lower_threshold_marks_more_in_transient(self):
        """Before AIMD closes the loop, a lower threshold must mark more.

        (At equilibrium the marked *fraction* converges to whatever the
        AIMD needs to hold the rate, so the comparison is only meaningful
        on the initial transient.)
        """
        def marked_frac(ecn):
            net = mk_net(seed=1)
            net.set_ecn_all(ecn)
            flows = [Flow(i, f"h{i}", "h4", 80_000_000) for i in range(3)]
            net.start_flows(flows)
            net.advance(4e-4)   # queue ~500 KB: past 20KB, below 2MB
            st = net.queue_stats()["leaf1"]
            return st.tx_marked_bytes / max(st.tx_bytes, 1)

        assert marked_frac(ECNConfig(5_000, 20_000, 1.0)) > \
            marked_frac(ECNConfig(2_000_000, 4_000_000, 0.05))

    def test_buffer_cap_enforced(self):
        net = mk_net()
        net.set_ecn_all(ECNConfig(50_000_000, 90_000_000, 0.01))
        flows = [Flow(i, f"h{i % 4}", "h4", 500_000_000) for i in range(12)]
        net.start_flows(flows)
        net.advance(0.02)
        assert net.q_len.max() <= net.config.switch_buffer_bytes + 1

    @pytest.mark.parametrize("sim", ["fluid", "fluid_shard"])
    def test_total_drops_is_cumulative_and_counts_packets(self, sim):
        """``queue_stats`` resets the interval's drop bytes; the total
        must keep them, in the records' 1000-byte ``dropped_pkts`` unit."""
        if sim == "fluid":
            net = mk_net(switch_buffer_bytes=20_000)
        else:
            net = ShardedFluidNetwork(replace(
                FatTreeConfig.small(), switch_buffer_bytes=20_000), seed=0)
        net.set_ecn_all(ECNConfig(50_000_000, 90_000_000, 0.01))
        net.start_flows([Flow(i, f"h{i % 4}", "h4", 5_000_000)
                         for i in range(12)])
        dropped_bytes, record_pkts = 0.0, 0
        for _ in range(3):
            net.advance(1e-3)
            dropped_bytes += float(net._acc_drops.sum())
            record_pkts += sum(st.dropped_pkts
                               for st in net.queue_stats().values())
        assert record_pkts > 0
        assert net.total_drops() == int(dropped_bytes // 1000)
        # the records round down per switch and collection
        assert 0 <= net.total_drops() - record_pkts <= 3 * net.n_switches


class TestStatsInterface:
    def test_queue_stats_shape(self):
        net = mk_net()
        net.start_flow(Flow(1, "h0", "h4", 5_000_000))
        net.advance(1e-3)
        stats = net.queue_stats()
        assert set(stats) == set(net.switch_names())
        st = stats["leaf0"]
        assert st.interval == pytest.approx(1e-3, rel=0.1)
        assert st.capacity_bps > 0
        assert st.ecn is not None

    def test_stats_reset_each_interval(self):
        net = mk_net()
        net.start_flow(Flow(1, "h0", "h4", 5_000_000))
        net.advance(1e-3)
        net.queue_stats()
        net.advance(1e-3)
        st = net.queue_stats()["leaf0"]
        assert st.interval == pytest.approx(1e-3, rel=0.1)

    def test_flow_observations_on_path_switches(self):
        net = mk_net()
        net.start_flow(Flow(9, "h0", "h4", 50_000_000))
        net.advance(1e-3)
        stats = net.queue_stats()
        assert 9 in stats["leaf1"].flow_obs      # destination leaf
        spine_obs = [9 in stats[s].flow_obs for s in ("spine0", "spine1")]
        assert sum(spine_obs) == 1               # exactly one spine on path

    def test_set_ecn_per_switch(self):
        net = mk_net()
        cfg = ECNConfig(111, 222, 0.33)
        net.set_ecn("leaf0", cfg)
        stats_ecn = net._switch_ecn[0]
        assert stats_ecn == cfg
        assert net._switch_ecn[1] != cfg

    def test_latency_samples(self):
        net = mk_net()
        net.start_flows([Flow(i, f"h{i}", "h4", 20_000_000) for i in range(3)])
        net.advance(2e-3)
        assert len(net.latencies) > 0
        assert all(lat >= 0 for _, lat in net.latencies)


class TestFailures:
    def test_fail_uplinks_reduces_capacity(self):
        net = mk_net()
        before = net.q_cap.sum()
        n = net.fail_uplinks(0.5, rng=np.random.default_rng(0))
        assert n >= 1
        assert net.q_cap.sum() < before
        net.restore_uplinks()
        assert net.q_cap.sum() == pytest.approx(before)

    def test_flows_rerouted_off_failed_spine(self):
        net = mk_net(seed=2)
        flows = [Flow(i, "h0", "h4", 100_000_000) for i in range(8)]
        net.start_flows(flows)
        net.advance(1e-3)
        # kill every uplink through spine0
        net.uplink_up[:, 0] = False
        net._apply_link_state()
        tab, = owner_tables(net)
        assert (tab.f_spine[tab.f_active] != 0).all()

    def test_failure_fraction_validation(self):
        with pytest.raises(ValueError):
            mk_net().fail_uplinks(0.0)

    def test_flows_complete_despite_failures(self):
        net = mk_net(seed=3)
        flows = [Flow(i, f"h{i % 4}", f"h{4 + i % 4}", 2_000_000)
                 for i in range(6)]
        net.start_flows(flows)
        net.advance(1e-3)
        net.fail_uplinks(0.25, rng=np.random.default_rng(1))
        net.advance(0.05)
        assert all(f.done for f in flows)


class TestCrossModelConsistency:
    """The fluid model should agree qualitatively with the packet model."""

    def test_ecn_threshold_direction_matches_packet_model(self):
        # Fluid: lower threshold -> shorter queue (asserted above).
        # Packet: same direction, small scenario.
        from repro.netsim.network import PacketNetwork
        from repro.netsim.topology import TopologyConfig

        def packet_queue(ecn):
            pn = PacketNetwork(TopologyConfig(
                n_spine=1, n_leaf=2, hosts_per_leaf=2,
                host_rate_bps=1e8, spine_rate_bps=4e8), seed=0)
            pn.set_ecn_all(ecn)
            pn.start_flows([Flow(i, f"h{i}", "h3", 400_000) for i in range(2)])
            pn.advance(0.02)
            return pn.queue_stats()["leaf1"].avg_qlen_bytes

        low = packet_queue(ECNConfig(2_000, 8_000, 1.0))
        high = packet_queue(ECNConfig(500_000, 900_000, 0.05))
        assert low < high
