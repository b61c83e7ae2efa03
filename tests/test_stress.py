"""Stress tests: long runs, slot reuse, stats interplay."""

import numpy as np
import pytest

from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.network import PacketNetwork
from repro.netsim.topology import TopologyConfig


class TestFluidSlotReuse:
    def test_many_sequential_waves_reuse_slots(self):
        """Thousands of short flows over time must not grow the arrays
        unboundedly — finished slots are recycled."""
        net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9), seed=0)
        rng = np.random.default_rng(0)
        fid = 0
        for wave in range(20):
            for _ in range(50):
                s, d = rng.choice(4, 2, replace=False)
                net.start_flow(Flow(fid, f"h{s}", f"h{d}", 50_000,
                                    start_time=net.now))
                fid += 1
            net.advance(5e-3)   # each wave finishes before the next
        assert len(net.finished_flows) == 1000
        # the live array never needed anywhere near 1000 slots
        assert net._table.n_flows[0] < 400

    def test_interleaved_long_and_short_flows(self):
        net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9), seed=1)
        net.start_flow(Flow(0, "h0", "h2", 500_000_000))   # long-running
        for i in range(1, 100):
            net.start_flow(Flow(i, "h1", "h3", 20_000,
                                start_time=i * 1e-3))
        net.advance(0.15)
        shorts = [f for f in net.flow_objs.values() if f.flow_id > 0]
        assert all(f.done for f in shorts)
        assert not net.flow_objs[0].done     # elephant still going
        # short flows reused slots around the pinned long flow
        assert net._table.n_flows[0] < 60


class TestStatsInterplay:
    def test_port_stats_then_queue_stats_consistent(self):
        """port_stats (no reset) before queue_stats (reset): the summed
        per-port tx must equal the per-switch tx of the same interval."""
        net = PacketNetwork(TopologyConfig(n_spine=1, n_leaf=2,
                                           hosts_per_leaf=2,
                                           host_rate_bps=1e8,
                                           spine_rate_bps=4e8), seed=0)
        net.start_flow(Flow(1, "h0", "h2", 100_000))
        net.advance(0.01)
        per_port = net.port_stats()
        per_switch = net.queue_stats()
        for name, st in per_switch.items():
            port_sum = sum(p.tx_bytes for (sw, _), p in per_port.items()
                           if sw == name)
            assert port_sum == st.tx_bytes

    def test_repeated_intervals_accumulate_total_volume(self):
        net = PacketNetwork(TopologyConfig(n_spine=1, n_leaf=2,
                                           hosts_per_leaf=2,
                                           host_rate_bps=1e8,
                                           spine_rate_bps=4e8), seed=0)
        f = Flow(1, "h0", "h2", 200_000)
        net.start_flow(f)
        total = 0
        for _ in range(40):
            net.advance(2e-3)
            total += net.queue_stats()["leaf0"].tx_bytes
        assert f.done
        # leaf0 forwarded at least the flow volume (plus control)
        assert total >= f.size_bytes

    def test_fluid_long_run_accumulators_stay_finite(self):
        net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9), seed=2)
        rng = np.random.default_rng(2)
        for i in range(300):
            s, d = rng.choice(4, 2, replace=False)
            net.start_flow(Flow(i, f"h{s}", f"h{d}",
                                int(rng.integers(10_000, 2_000_000)),
                                start_time=float(rng.uniform(0, 0.3))))
        for _ in range(80):
            net.advance(5e-3)
            stats = net.queue_stats()
            for st in stats.values():
                assert np.isfinite(st.avg_qlen_bytes)
                assert st.tx_bytes >= 0
                assert 0.0 <= st.utilization <= 1.0
        assert all(f.done for f in net.flow_objs.values())
