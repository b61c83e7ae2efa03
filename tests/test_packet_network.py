"""End-to-end tests for the packet-level network facade."""

import numpy as np
import pytest

from repro.netsim.ecn import ECNConfig
from repro.netsim.failures import LinkFailureInjector
from repro.netsim.flow import Flow
from repro.netsim.network import PacketNetwork
from repro.netsim.topology import TopologyConfig


def mk_net(**kw):
    defaults = dict(n_spine=2, n_leaf=2, hosts_per_leaf=2,
                    host_rate_bps=1e8, spine_rate_bps=4e8)
    defaults.update(kw)
    return PacketNetwork(TopologyConfig(**defaults), seed=1)


class TestLifecycle:
    def test_switch_and_host_names(self):
        net = mk_net()
        assert net.switch_names() == ["leaf0", "leaf1", "spine0", "spine1"]
        assert net.host_names() == ["h0", "h1", "h2", "h3"]

    def test_duplicate_flow_rejected(self):
        net = mk_net()
        net.start_flow(Flow(1, "h0", "h2", 1000))
        with pytest.raises(ValueError):
            net.start_flow(Flow(1, "h0", "h3", 1000))

    def test_finished_flows_collected_in_order(self):
        net = mk_net()
        flows = [Flow(i, "h0", "h2", 5_000 * (i + 1)) for i in range(3)]
        net.start_flows(flows)
        net.advance(1.0)
        assert len(net.finished_flows) == 3
        fts = [f.finish_time for f in net.finished_flows]
        assert fts == sorted(fts)

    def test_advance_validates_dt(self):
        net = mk_net()
        with pytest.raises(ValueError):
            net.advance(0.0)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            PacketNetwork(TopologyConfig(), transport="tcp-reno")


class TestStats:
    def test_tx_bytes_accounts_flow_volume(self):
        net = mk_net()
        f = Flow(1, "h0", "h2", 40_000)
        net.start_flow(f)
        net.advance(1.0)
        stats = net.queue_stats()
        # leaf0 forwarded the flow upstream (plus control packets)
        assert stats["leaf0"].tx_bytes >= 40_000
        assert f.done

    def test_interval_reset_between_snapshots(self):
        net = mk_net()
        net.start_flow(Flow(1, "h0", "h2", 40_000))
        net.advance(1.0)
        net.queue_stats()
        second = net.queue_stats()   # immediately after: nothing new
        assert second["leaf0"].tx_bytes == 0

    def test_utilization_bounded(self):
        net = mk_net()
        net.start_flows([Flow(i, f"h{i % 2}", "h2", 100_000) for i in range(4)])
        net.advance(0.01)
        for st in net.queue_stats().values():
            assert 0.0 <= st.utilization <= 1.0

    def test_flow_observations_reach_stats(self):
        net = mk_net()
        net.start_flow(Flow(7, "h0", "h2", 50_000))
        net.advance(0.005)
        stats = net.queue_stats()
        assert 7 in stats["leaf0"].flow_obs

    def test_marked_bytes_with_aggressive_ecn(self):
        net = mk_net()
        net.set_ecn_all(ECNConfig(1, 2, 1.0))
        net.start_flows([Flow(i, f"h{i}", "h3", 200_000) for i in range(2)])
        net.advance(0.05)
        total_marked = sum(s.tx_marked_bytes for s in net.queue_stats().values())
        assert total_marked > 0

    def test_switch_record_is_the_sum_of_its_ports(self):
        """``queue_stats()`` reads its baselines from a per-switch list;
        ``port_stats()`` reads the ``(switch, port)``-keyed dict.  Read
        back to back, every per-switch counter must be the in-order sum
        of that switch's port records — under marking and tail drops."""
        net = mk_net(switch_buffer_bytes=30_000)
        net.set_ecn_all(ECNConfig(2_000, 10_000, 0.5))
        net.start_flows([Flow(i, f"h{i % 3}", "h3", 400_000)
                         for i in range(6)])
        seen = {"tx": 0, "marked": 0, "drops": 0}
        for _ in range(6):
            net.advance(0.004)
            ports = net.port_stats()
            stats = net.queue_stats()
            assert set(stats) == set(net.switch_names())
            for name, st in stats.items():
                mine = [ports[(name, i)] for i in range(st.n_queues)]
                assert len(mine) == sum(1 for sw, _ in ports if sw == name)
                avg_q = 0.0
                flow_obs = {}
                for p in mine:
                    avg_q += p.avg_qlen_bytes
                    flow_obs.update(p.flow_obs)
                assert st.tx_bytes == sum(p.tx_bytes for p in mine)
                assert st.tx_marked_bytes == sum(p.tx_marked_bytes
                                                 for p in mine)
                assert st.dropped_pkts == sum(p.dropped_pkts for p in mine)
                assert st.avg_qlen_bytes == avg_q
                assert st.qlen_bytes == sum(p.qlen_bytes for p in mine)
                assert st.max_port_qlen_bytes == max(p.qlen_bytes
                                                     for p in mine)
                assert st.interval == mine[0].interval
                assert st.flow_obs == flow_obs
                seen["tx"] += st.tx_bytes
                seen["marked"] += st.tx_marked_bytes
                seen["drops"] += st.dropped_pkts
        assert all(seen.values()), seen

    def test_no_marks_with_huge_thresholds(self):
        net = mk_net()
        net.set_ecn_all(ECNConfig(50_000_000, 99_000_000, 0.01))
        net.start_flows([Flow(i, f"h{i}", "h3", 100_000) for i in range(2)])
        net.advance(0.05)
        total_marked = sum(s.tx_marked_bytes for s in net.queue_stats().values())
        assert total_marked == 0


class TestECNControl:
    def test_set_ecn_single_switch(self):
        net = mk_net()
        cfg = ECNConfig(1_000, 9_000, 0.7)
        net.set_ecn("leaf1", cfg)
        assert net.topology.node("leaf1").current_ecn() == cfg
        assert net.topology.node("leaf0").current_ecn() != cfg

    def test_set_ecn_rejects_host(self):
        net = mk_net()
        with pytest.raises(TypeError):
            net.set_ecn("h0", ECNConfig(1, 2, 0.5))

    def test_lower_threshold_means_more_marks(self):
        def marked_fraction(ecn):
            net = mk_net()
            net.set_ecn_all(ecn)
            net.start_flows([Flow(i, f"h{i}", "h3", 300_000)
                             for i in range(2)])
            net.advance(0.1)
            st = net.queue_stats()
            tx = sum(s.tx_bytes for s in st.values())
            marked = sum(s.tx_marked_bytes for s in st.values())
            return marked / max(tx, 1)

        low = marked_fraction(ECNConfig(1_000, 5_000, 1.0))
        high = marked_fraction(ECNConfig(500_000, 900_000, 1.0))
        assert low > high


class TestIncastBehaviour:
    def test_incast_builds_queue_at_last_hop(self):
        net = mk_net(hosts_per_leaf=4, n_leaf=2)
        # 7 senders -> h0: last-hop port on leaf0 must congest
        flows = [Flow(i, f"h{i}", "h0", 100_000, start_time=0.0)
                 for i in range(1, 8)]
        net.start_flows(flows)
        net.advance(0.002)
        stats = net.queue_stats()
        assert stats["leaf0"].max_port_qlen_bytes > 10_000

    def test_latency_samples_collected(self):
        net = mk_net()
        net.start_flow(Flow(1, "h0", "h2", 50_000))
        net.advance(0.05)
        assert len(net.latencies) > 0
        for _, lat in net.latencies:
            assert lat > 0


class TestLinkFailures:
    def test_fail_fraction_and_restore(self):
        net = mk_net()
        inj = LinkFailureInjector(net, rng=np.random.default_rng(0))
        chosen = inj.fail_fraction(0.25)
        assert len(chosen) >= 1
        assert inj.any_down()
        for sw_name, idx in chosen:
            assert not net.topology.node(sw_name).ports[idx].up
        assert inj.restore_all() == len(chosen)
        assert not inj.any_down()

    def test_flows_survive_partial_failure(self):
        """With 2 spines, failing one leaf uplink leaves a path."""
        net = mk_net()
        inj = LinkFailureInjector(net, rng=np.random.default_rng(3))
        # fail exactly one leaf->spine port
        leaf_ports = [(s, i) for (s, i) in net.topology.fabric_ports
                      if s.startswith("leaf")]
        sw_name, idx = leaf_ports[0]
        net.topology.node(sw_name).ports[idx].set_up(False)
        flows = [Flow(i, "h0", "h2", 50_000) for i in range(3)]
        net.start_flows(flows)
        net.advance(2.0)
        assert all(f.done for f in flows)

    def test_schedule_episode(self):
        net = mk_net()
        inj = LinkFailureInjector(net, rng=np.random.default_rng(0))
        inj.schedule_episode(fail_at=0.01, restore_at=0.02, fraction=0.25)
        net.advance(0.015)
        assert inj.any_down()
        net.advance(0.01)
        assert not inj.any_down()

    def test_schedule_validation(self):
        net = mk_net()
        inj = LinkFailureInjector(net)
        with pytest.raises(ValueError):
            inj.schedule_episode(fail_at=1.0, restore_at=0.5)
        with pytest.raises(ValueError):
            inj.fail_fraction(0.0)
