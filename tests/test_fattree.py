"""Fat-tree topology + config validation (repro.netsim.fattree).

Covers the multi-pod builder (structure, naming, routing reachability
through the packet simulator), the config dimension checks, and the
``base_rtt`` derivation contract shared with :class:`FluidConfig`: the
propagation RTT is derived from the link delays unless explicitly
given, and an explicit value inconsistent with the delays is rejected
instead of silently skewing FCT normalization.
"""

import pytest

from repro.netsim.fattree import FatTreeConfig, FatTreeTopology
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig
from repro.netsim.network import PacketNetwork
from repro.netsim.engine import Simulator
from repro.netsim.topology import LeafSpineTopology, TopologyConfig
from tests.wiring import hops, wired_neighbours


class TestFatTreeConfig:
    def test_counts(self):
        cfg = FatTreeConfig(n_pods=4, edge_per_pod=2, agg_per_pod=2,
                            core_per_agg=2, hosts_per_edge=4)
        assert cfg.n_core == 4
        assert cfg.n_edge == 8 and cfg.n_agg == 8
        assert cfg.n_switches == 20
        assert cfg.hosts_per_pod == 8 and cfg.n_hosts == 32

    def test_host_to_pod_and_edge_mapping(self):
        cfg = FatTreeConfig.small()          # 2 pods, 2 edges, 2 hosts/edge
        assert cfg.pod_of_host(0) == 0 and cfg.pod_of_host(7) == 1
        assert cfg.edge_of_host(2) == 1 and cfg.edge_of_host(4) == 0

    def test_production_scale_meets_the_capacity_floor(self):
        cfg = FatTreeConfig.production_scale()
        assert cfg.n_switches >= 64
        assert cfg.n_hosts >= 256

    @pytest.mark.parametrize("field", ["n_pods", "edge_per_pod",
                                       "agg_per_pod", "core_per_agg",
                                       "hosts_per_edge"])
    def test_rejects_nonpositive_dimensions(self, field):
        with pytest.raises(ValueError):
            FatTreeConfig(**{field: 0})

    def test_base_rtt_derived_from_link_delays(self):
        cfg = FatTreeConfig()
        # 5-hop inter-pod path: 2 host links + 4 fabric links each way
        assert cfg.base_rtt == 2 * (2 * cfg.host_link_delay
                                    + 4 * cfg.fabric_link_delay)
        assert cfg.base_rtt == pytest.approx(24e-6)

    def test_explicit_consistent_base_rtt_accepted(self):
        cfg = FatTreeConfig(base_rtt=24e-6)
        assert cfg.base_rtt == 24e-6

    def test_inconsistent_base_rtt_rejected(self):
        with pytest.raises(ValueError, match="base_rtt"):
            FatTreeConfig(base_rtt=16e-6)

    def test_nonpositive_link_delay_rejected(self):
        with pytest.raises(ValueError):
            FatTreeConfig(host_link_delay=0.0)


class TestFluidConfigBaseRTT:
    """The leaf–spine fluid config shares the derivation contract."""

    def test_default_matches_the_historical_constant(self):
        # pre-refactor FluidConfig hardcoded base_rtt = 16e-6; deriving
        # it from the default 2 us link delays must not move any number
        assert FluidConfig().base_rtt == pytest.approx(16e-6)

    def test_derivation_tracks_the_delays(self):
        cfg = FluidConfig(host_link_delay=1e-6, fabric_link_delay=3e-6)
        assert cfg.base_rtt == 2 * (2 * 1e-6 + 2 * 3e-6)

    def test_inconsistent_base_rtt_rejected(self):
        with pytest.raises(ValueError, match="base_rtt"):
            FluidConfig(base_rtt=99e-6)

    def test_consistent_base_rtt_accepted(self):
        assert FluidConfig(base_rtt=16e-6).base_rtt == 16e-6


class TestFatTreeTopology:
    def _topo(self, cfg=None):
        cfg = cfg or FatTreeConfig.small()
        return cfg, FatTreeTopology(cfg, Simulator())

    def test_switch_inventory_and_names(self):
        cfg, topo = self._topo()
        names = [s.name for s in topo.switches()]
        assert len(names) == cfg.n_switches
        assert names[0] == "pod0.edge0"
        assert f"core{cfg.n_core - 1}" in names
        assert len(set(names)) == len(names)

    def test_graph_is_connected(self):
        cfg, topo = self._topo()
        adj = wired_neighbours(topo)
        assert len(adj) == cfg.n_switches + cfg.n_hosts
        assert all(len(hops(adj, n)) == len(adj) for n in adj)
        assert all(a in adj[b] for a in adj for b in adj[a])
        # host -> edge -> agg -> core -> agg -> edge -> host across pods
        assert hops(adj, "h0")[f"h{cfg.n_hosts - 1}"] == 6

    def test_edge_of_unknown_host_raises_keyerror(self):
        _, topo = self._topo()
        with pytest.raises(KeyError, match="h99"):
            topo.edge_of("h99")
        with pytest.raises(KeyError, match="bogus"):
            topo.edge_of("bogus")

    def test_packet_interpod_flow_crosses_the_core(self):
        cfg = FatTreeConfig.small()
        net = PacketNetwork(cfg, seed=0)
        net.start_flows([Flow(0, "h0", f"h{cfg.n_hosts - 1}", 40_000,
                              start_time=0.0)])
        net.advance(0.05)
        stats = net.queue_stats()
        assert len(net.finished_flows) == 1
        core_tx = sum(stats[f"core{c}"].tx_bytes for c in range(cfg.n_core))
        assert core_tx > 0, "inter-pod bytes never traversed the core plane"


class TestLeafSpineNodeLookupErrors:
    """Bare int() parses used to surface as ValueError with no context;
    unknown nodes must raise KeyError naming the node."""

    def test_leaf_of_unknown_host(self):
        topo = LeafSpineTopology(TopologyConfig(), Simulator())
        with pytest.raises(KeyError, match="spurious"):
            topo.leaf_of("spurious")
        with pytest.raises(KeyError, match="h999"):
            topo.leaf_of("h999")

    def test_fluid_switch_id_unknown_switch(self):
        from repro.netsim.fluid import FluidNetwork
        net = FluidNetwork(FluidConfig(), seed=0)
        with pytest.raises(KeyError, match="leaf99"):
            net._switch_id("leaf99")
        with pytest.raises(KeyError, match="frobnicator"):
            net._switch_id("frobnicator")
