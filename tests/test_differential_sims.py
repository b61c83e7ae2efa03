"""Differential test: fluid model vs packet model on the same scenario.

The repo carries two simulators of the same physical system — the
packet-level event simulator (:mod:`repro.netsim.network`) and the
fluid approximation (:mod:`repro.netsim.fluid`).  They will never agree
bit-for-bit, but on the same small leaf–spine fan-in scenario they must
agree on the physics:

- the utilization of the congested destination leaf matches within an
  absolute 0.15 (the fluid model's documented fidelity band);
- both rank per-switch average queue occupancy the same way — the
  fan-in destination leaf is the hottest switch in both worlds;
- both move (essentially) all offered bytes.

Deliberately cheap — 1e8 b/s host links keep the packet run to a few
hundred packets, well inside the tier-1 time budget.
"""

import numpy as np
import pytest

from repro.netsim.batchfluid import BatchFluidNetwork
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.network import PacketNetwork
from repro.netsim.topology import TopologyConfig

# Same fabric in both worlds: 1 spine, 2 leaves, 2 hosts per leaf,
# slow links (1e8 b/s) so the packet run stays cheap.
_HOST_BPS = 1e8
_SPINE_BPS = 4e8
_DURATION = 0.05

# Fan-in: h0, h1 (leaf0) and h2 (leaf1) all send to h3 (leaf1) — the
# congestion point is leaf1's downlink to h3.
_FLOW_SIZES = [150_000, 120_000, 90_000]


def _flows():
    return [Flow(i, f"h{i}", "h3", size, start_time=0.0)
            for i, size in enumerate(_FLOW_SIZES)]


def _packet_stats():
    net = PacketNetwork(TopologyConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                       host_rate_bps=_HOST_BPS,
                                       spine_rate_bps=_SPINE_BPS), seed=0)
    net.start_flows(_flows())
    net.advance(_DURATION)
    return net.queue_stats()


def _fluid_cfg():
    return FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                       host_rate_bps=_HOST_BPS, spine_rate_bps=_SPINE_BPS)


def _fluid_stats(batched=False):
    """Fluid-side stats, either solo or through the (R=1) batch kernel.

    The batched variant runs the same scenario as one replica of a
    :class:`BatchFluidNetwork` — the differential bands must hold
    through either backend (and in fact the two are bit-identical;
    ``tests/test_batchfluid.py``).
    """
    if batched:
        batch = BatchFluidNetwork(_fluid_cfg(), seeds=(0,))
        net = batch.view(0)
        net.start_flows(_flows())
        batch.advance(_DURATION)
        return net.queue_stats()
    net = FluidNetwork(_fluid_cfg(), seed=0)
    net.start_flows(_flows())
    net.advance(_DURATION)
    return net.queue_stats()


@pytest.mark.parametrize("batched", [False, True], ids=["solo", "sim_batch"])
class TestFluidVsPacketDifferential:
    def test_destination_leaf_utilization_within_band(self, batched):
        pkt = _packet_stats()
        fld = _fluid_stats(batched)
        u_pkt = pkt["leaf1"].utilization
        u_fld = fld["leaf1"].utilization
        assert u_pkt > 0 and u_fld > 0, "scenario produced no traffic"
        assert abs(u_pkt - u_fld) <= 0.15, (
            f"leaf1 utilization diverged: packet={u_pkt:.3f} "
            f"fluid={u_fld:.3f}")

    def test_occupancy_ordering_agrees(self, batched):
        """Both simulators must rank the fan-in destination leaf as the
        hottest switch by time-averaged queue occupancy."""
        pkt = _packet_stats()
        fld = _fluid_stats(batched)
        assert set(pkt) == set(fld)          # same switch names
        hottest_pkt = max(pkt, key=lambda n: pkt[n].avg_qlen_bytes)
        hottest_fld = max(fld, key=lambda n: fld[n].avg_qlen_bytes)
        assert hottest_pkt == hottest_fld == "leaf1"
        # and the full ordering of the two leaves agrees
        assert (pkt["leaf0"].avg_qlen_bytes <= pkt["leaf1"].avg_qlen_bytes)
        assert (fld["leaf0"].avg_qlen_bytes <= fld["leaf1"].avg_qlen_bytes)

    def test_both_models_deliver_the_offered_bytes(self, batched):
        offered = sum(_FLOW_SIZES)
        for stats in (_packet_stats(), _fluid_stats(batched)):
            delivered = stats["leaf1"].tx_bytes
            # leaf1 egresses every fan-in byte (plus protocol overhead in
            # the packet world) — within 25% of the offered volume.
            assert delivered >= 0.75 * offered
            assert delivered <= 2.0 * offered


def test_batched_backend_is_bit_identical_to_solo():
    """The two fluid backends are not merely within-band of each other —
    the differential scenario itself is bit-identical through the batch
    kernel, so the packet-vs-fluid bands above are one comparison, not
    two."""
    from repro.fingerprint import fingerprint

    assert fingerprint(_fluid_stats(False)) == fingerprint(_fluid_stats(True))


# --------------------------------------------------------------- fat-tree
#
# The same physics bands on the multi-pod fabric: the packet simulator on
# a FatTreeConfig vs the fat-tree fluid model.  Fan-in converges
# on h7 (pod1.edge1): two inter-pod senders and one intra-edge one, so
# the congestion point is pod1.edge1's downlink to h7.

_FT_FLOW_SPECS = [("h0", 150_000), ("h4", 120_000), ("h6", 90_000)]


def _ft_cfg():
    from repro.netsim.fattree import FatTreeConfig
    return FatTreeConfig(n_pods=2, edge_per_pod=2, agg_per_pod=2,
                         core_per_agg=1, hosts_per_edge=2,
                         host_rate_bps=_HOST_BPS, agg_rate_bps=_SPINE_BPS,
                         core_rate_bps=_SPINE_BPS)


def _ft_flows():
    return [Flow(i, src, "h7", size, start_time=0.0)
            for i, (src, size) in enumerate(_FT_FLOW_SPECS)]


def _ft_packet_stats():
    net = PacketNetwork(_ft_cfg(), seed=0)
    net.start_flows(_ft_flows())
    net.advance(_DURATION)
    return net.queue_stats()


def _ft_fluid_stats():
    from repro.netsim.shard import ShardedFluidNetwork
    net = ShardedFluidNetwork(_ft_cfg(), seed=0)
    net.start_flows(_ft_flows())
    net.advance(_DURATION)
    return net.queue_stats()


class TestFatTreeDifferential:
    def test_destination_edge_utilization_within_band(self):
        pkt = _ft_packet_stats()
        fld = _ft_fluid_stats()
        u_pkt = pkt["pod1.edge1"].utilization
        u_fld = fld["pod1.edge1"].utilization
        assert u_pkt > 0 and u_fld > 0, "scenario produced no traffic"
        assert abs(u_pkt - u_fld) <= 0.15, (
            f"pod1.edge1 utilization diverged: packet={u_pkt:.3f} "
            f"fluid={u_fld:.3f}")

    def test_occupancy_ordering_agrees(self):
        pkt = _ft_packet_stats()
        fld = _ft_fluid_stats()
        assert set(pkt) == set(fld)          # same switch names
        hottest_pkt = max(pkt, key=lambda n: pkt[n].avg_qlen_bytes)
        hottest_fld = max(fld, key=lambda n: fld[n].avg_qlen_bytes)
        assert hottest_pkt == hottest_fld == "pod1.edge1"

    def test_both_models_deliver_the_offered_bytes(self):
        offered = sum(size for _, size in _FT_FLOW_SPECS)
        for stats in (_ft_packet_stats(), _ft_fluid_stats()):
            delivered = stats["pod1.edge1"].tx_bytes
            assert delivered >= 0.75 * offered
            assert delivered <= 2.0 * offered
