"""End-to-end tests for the packet-level network facade."""

import numpy as np
import pytest

from repro.core.config import PETConfig
from repro.core.ncm import FleetNCM
from repro.netsim.ecn import ECNConfig
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.network import PacketNetwork
from repro.netsim.topology import TopologyConfig
from tests.flow_rows import switch_rows


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
        net.start_flow(Flow(7, "h0", "h2", 500_000))
        net.advance(0.005)
        stats = net.queue_stats()
        assert not net.flows[7].done
        assert 7 in switch_rows(stats["leaf0"])

    def test_finished_flows_leave_the_records(self):
        """Four 20 kB flows finish in the first millisecond: from then on
        no record lists them, the queues forget them, and the NCM stops
        counting them."""
        net = mk_net(host_rate_bps=10e9, spine_rate_bps=40e9)
        net.start_flows([Flow(i, f"h{i}", f"h{(i + 2) % 4}", 20_000)
                         for i in range(4)])
        names = net.switch_names()
        ncm = FleetNCM(names, PETConfig())
        for _ in range(40):
            net.advance(1e-3)
            stats = net.queue_stats()
            incast, _, flows = ncm.ingest([stats[s] for s in names],
                                          np.arange(len(names)))
        assert len(net.finished_flows) == 4
        assert [len(switch_rows(stats[s])) for s in names] == [0, 0, 0, 0]
        assert all(not port.queue.flow_obs
                   for sw in net.topology.switches() for port in sw.ports)
        assert incast.tolist() == flows.tolist() == [0, 0, 0, 0]

    def test_record_does_not_change_after_collection(self):
        """A record holds the values of its collection: the next interval
        of a 5 MB flow does not reach back into it."""
        net = mk_net(host_rate_bps=10e9, spine_rate_bps=40e9)
        net.start_flow(Flow(1, "h0", "h3", 5_000_000))
        net.advance(1e-3)
        rec = net.queue_stats()["leaf0"]
        before = switch_rows(rec)
        assert 0 < before[1][2] < 5_000_000
        net.advance(1e-3)
        assert switch_rows(net.queue_stats()["leaf0"])[1][2] > before[1][2]
        assert switch_rows(rec) == before

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
                for p in mine:
                    avg_q += p.avg_qlen_bytes
                    assert p.flow_rows is None
                assert st.tx_bytes == sum(p.tx_bytes for p in mine)
                assert st.tx_marked_bytes == sum(p.tx_marked_bytes
                                                 for p in mine)
                assert st.dropped_pkts == sum(p.dropped_pkts for p in mine)
                assert st.avg_qlen_bytes == avg_q
                assert st.qlen_bytes == sum(p.qlen_bytes for p in mine)
                assert st.max_port_qlen_bytes == max(p.qlen_bytes
                                                     for p in mine)
                assert st.interval == mine[0].interval
                # the switch reports its ports' flows, all still active,
                # merged (a later port wins) and oldest ``last_seen`` first
                merged = {}
                for port in net.topology.node(name).ports:
                    merged.update(port.queue.flow_obs)
                assert not any(net.flows[f].done for f in merged)
                want = sorted(merged.values(), key=lambda o: o.last_seen)
                assert [(f, b) for f, (_, _, b) in
                        switch_rows(st).items()] == \
                    [(o.flow_id, o.bytes_seen) for o in want]
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
    """``fail_uplinks`` fails whole links, both directions, by the fluid
    networks' rule."""

    @staticmethod
    def _down(net):
        return [(sw, i) for sw, i in net.topology.fabric_ports
                if not net.topology.node(sw).ports[i].up]

    def test_fail_fraction_and_restore(self):
        net = mk_net()
        assert net.fail_uplinks(0.25, rng=np.random.default_rng(0)) == 1
        assert len(self._down(net)) == 2
        net.restore_uplinks()
        assert self._down(net) == []

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
    def test_failure_takes_both_directions_down(self, seed, fraction):
        """Every downed port's reverse port is down too, and the link
        count is what the same-shaped fluid fabric fails."""
        net = mk_net()
        n = net.fail_uplinks(fraction, rng=np.random.default_rng(seed))
        down = self._down(net)
        nodes = {(sw, i): net.topology.node(sw) for sw, i in down}
        for (sw, i), node in nodes.items():
            peer = node.ports[i].peer
            assert any(p.peer is node and not p.up for p in peer.ports)
        assert len(down) == 2 * n == 2 * max(1, round(fraction * 4))
        fluid = FluidNetwork(FluidConfig(n_spine=2, n_leaf=2,
                                         hosts_per_leaf=2), seed=seed)
        assert fluid.fail_uplinks(fraction) == n

    def test_flows_survive_partial_failure(self):
        """With 2 spines, failing one leaf uplink leaves a path."""
        net = mk_net()
        # fail exactly one leaf->spine port
        leaf_ports = [(s, i) for (s, i) in net.topology.fabric_ports
                      if s.startswith("leaf")]
        sw_name, idx = leaf_ports[0]
        net.topology.node(sw_name).ports[idx].set_up(False)
        flows = [Flow(i, "h0", "h2", 50_000) for i in range(3)]
        net.start_flows(flows)
        net.advance(2.0)
        assert all(f.done for f in flows)

    @pytest.mark.parametrize("seed", range(5))
    def test_routes_withdrawn_around_a_failed_link(self, seed):
        """Three 100 kB flows h0→h2 with one of the four links down:
        wherever it sits (the destination leaf's for seeds 0, 2, 3, 4),
        every flow finishes, and a restore brings back the configured
        next hops."""
        net = PacketNetwork(TopologyConfig(n_spine=2, n_leaf=2,
                                           hosts_per_leaf=2), seed=1)
        routes = {sw.name: dict(sw.routes) for sw in net.topology.switches()}
        assert net.fail_uplinks(0.25, rng=np.random.default_rng(seed)) == 1
        flows = [Flow(i, "h0", "h2", 100_000) for i in range(3)]
        net.start_flows(flows)
        net.advance(0.2)
        assert all(f.done for f in flows)
        net.restore_uplinks()
        assert {sw.name: sw.next_hops for sw in net.topology.switches()} \
            == routes

    @pytest.mark.parametrize("seed", range(4))
    def test_fat_tree_routes_withdrawn_around_failed_links(self, seed):
        """Flows between the two pods of the small fat-tree, with one of
        its four agg–core links down, all finish."""
        net = PacketNetwork(FatTreeConfig.small(), seed=1)
        assert net.fail_uplinks(0.25, rng=np.random.default_rng(seed)) == 1
        flows = [Flow(i, f"h{i % 4}", f"h{4 + (i * 3) % 4}", 100_000)
                 for i in range(8)]
        net.start_flows(flows)
        net.advance(0.2)
        assert all(f.done for f in flows)

    def test_fat_tree_fails_the_sharded_fluid_links(self):
        """Both substrates fail the same population on a fat-tree: its
        ``n_pods × n_core`` agg–core (pod–core) links, and no edge–agg
        link; capacity scaling still reaches every fabric port."""
        from repro.netsim.shard import ShardedFluidNetwork

        cfg = FatTreeConfig.small()
        net = PacketNetwork(cfg, seed=1)
        fluid = ShardedFluidNetwork(cfg, seed=1)
        links = cfg.n_pods * cfg.n_core
        assert links == 4
        assert net.fail_uplinks(1.0) == fluid.fail_uplinks(1.0) == links
        down = self._down(net)
        assert len(down) == 2 * links
        assert not any("edge" in sw for sw, _ in down)
        ports = [net.topology.node(sw).ports[i]
                 for sw, i in net.topology.fabric_ports]
        assert len(ports) == 24                 # 8 edge–agg + 4 agg–core
        nominal = [p.rate_bps for p in ports]
        net.set_fabric_capacity_factor(0.5)
        assert [p.rate_bps for p in ports] == [r * 0.5 for r in nominal]

    def test_schedule_episode(self):
        """The link methods run as events of the simulator's engine."""
        net = mk_net()
        net.sim.schedule_at(0.01, net.fail_uplinks, 0.25)
        net.sim.schedule_at(0.02, net.restore_uplinks)
        net.advance(0.015)
        assert len(self._down(net)) == 2
        net.advance(0.01)
        assert self._down(net) == []

    def test_schedule_validation(self):
        net = mk_net()
        for fraction in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="fraction"):
                net.fail_uplinks(fraction)
        for factor in (0.0, 1.5):
            with pytest.raises(ValueError, match="capacity factor"):
                net.set_fabric_capacity_factor(factor)
