"""Property-based tests on transports and the fluid model's invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.ecn import ECNConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.network import PacketNetwork
from repro.netsim.topology import TopologyConfig
from tests.owner_tables import owner_tables


# Keep the fabrics tiny: hypothesis runs many examples.
def packet_net(seed=0, buffer_bytes=2_000_000):
    return PacketNetwork(TopologyConfig(
        n_spine=1, n_leaf=2, hosts_per_leaf=2,
        host_rate_bps=2e8, spine_rate_bps=8e8,
        switch_buffer_bytes=buffer_bytes), seed=seed)


def fluid_net(seed=0):
    return FluidNetwork(FluidConfig(
        n_spine=1, n_leaf=2, hosts_per_leaf=2,
        host_rate_bps=10e9, spine_rate_bps=40e9), seed=seed)


class TestPacketTransportProperties:
    @given(sizes=st.lists(st.integers(1_000, 100_000), min_size=1,
                          max_size=4),
           kmax_kb=st.sampled_from([20, 100, 500]))
    @settings(max_examples=15, deadline=None)
    def test_all_flows_complete_and_fct_positive(self, sizes, kmax_kb):
        net = packet_net()
        net.set_ecn_all(ECNConfig(kmax_kb * 250, kmax_kb * 1000, 0.5))
        flows = [Flow(i, f"h{i % 2}", f"h{2 + i % 2}", s)
                 for i, s in enumerate(sizes)]
        net.start_flows(flows)
        net.advance(3.0)
        for f in flows:
            assert f.done
            assert f.fct > 0
            # FCT can never beat the line-rate serialization bound
            assert f.fct >= f.size_bytes * 8 / 2e8 * 0.99

    @given(size=st.integers(5_000, 200_000), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_receiver_byte_count_matches_flow_size(self, size, seed):
        net = packet_net(seed=seed)
        f = Flow(1, "h0", "h2", size)
        net.start_flow(f)
        net.advance(3.0)
        assert f.done
        rx = net.topology.node("h2").transport.receivers[1]
        assert rx.expected >= size      # cumulative in-order bytes

    @given(n_flows=st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_fifo_flow_ids_complete_exactly_once(self, n_flows):
        net = packet_net()
        flows = [Flow(i, "h0", "h3", 20_000, start_time=i * 1e-4)
                 for i in range(n_flows)]
        net.start_flows(flows)
        net.advance(3.0)
        done_ids = [f.flow_id for f in net.finished_flows]
        assert sorted(done_ids) == list(range(n_flows))
        assert len(set(done_ids)) == n_flows


class TestFluidProperties:
    @given(sizes=st.lists(st.integers(10_000, 5_000_000), min_size=1,
                          max_size=6),
           seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_work_conservation(self, sizes, seed):
        """Total delivered bytes equal total offered bytes when all
        flows complete, and never exceed them."""
        net = fluid_net(seed=seed)
        rng = np.random.default_rng(seed)
        flows = []
        for i, s in enumerate(sizes):
            src, dst = rng.choice(4, 2, replace=False)
            flows.append(Flow(i, f"h{src}", f"h{dst}", s))
        net.start_flows(flows)
        net.advance(0.2)
        assert all(f.done for f in flows)
        # remaining work is non-negative and zero for finished flows
        tab, = owner_tables(net)
        assert np.all(tab.f_remaining <= max(sizes))
        for i in range(tab.n_flows):
            assert tab.f_remaining[i] <= 0 or not tab.f_active[i]

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_queue_lengths_never_negative_or_above_buffer(self, seed):
        net = fluid_net(seed=seed)
        rng = np.random.default_rng(seed)
        for i in range(10):
            src, dst = rng.choice(4, 2, replace=False)
            net.start_flow(Flow(i, f"h{src}", f"h{dst}",
                                int(rng.integers(10_000, 50_000_000))))
        for _ in range(20):
            net.advance(5e-4)
            assert np.all(net.q_len >= 0.0)
            assert np.all(net.q_len <= net.config.switch_buffer_bytes + 1)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_rates_within_line_rate(self, seed):
        net = fluid_net(seed=seed)
        rng = np.random.default_rng(seed)
        for i in range(8):
            src, dst = rng.choice(4, 2, replace=False)
            net.start_flow(Flow(i, f"h{src}", f"h{dst}", 10_000_000))
        net.advance(2e-3)
        line = net.config.host_rate_bps / 8.0
        tab, = owner_tables(net)
        assert np.all(tab.f_rate[tab.f_active] <= line * (1 + 1e-9))
        assert np.all(tab.f_rate[tab.f_active] > 0)

    @given(fraction=st.floats(0.1, 0.9), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_failure_restore_is_idempotent_on_capacity(self, fraction, seed):
        net = fluid_net(seed=seed)
        nominal = net.q_cap.copy()
        net.fail_uplinks(fraction, rng=np.random.default_rng(seed))
        net.restore_uplinks()
        np.testing.assert_allclose(net.q_cap, nominal)
