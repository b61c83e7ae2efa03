"""Tests for leaf-spine topology construction and routing."""

import numpy as np
import pytest

from repro.netsim.engine import Simulator
from repro.netsim.topology import LeafSpineTopology, TopologyConfig
from tests.wiring import hops, wired_neighbours


@pytest.fixture
def topo():
    cfg = TopologyConfig(n_spine=2, n_leaf=3, hosts_per_leaf=4)
    return LeafSpineTopology(cfg, Simulator(), rng=np.random.default_rng(0))


class TestConstruction:
    def test_counts(self, topo):
        assert len(topo.hosts) == 12
        assert len(topo.leaves) == 3
        assert len(topo.spines) == 2
        assert len(topo.switches()) == 5

    def test_leaf_ports(self, topo):
        # each leaf: hosts_per_leaf down-ports + n_spine up-ports
        for leaf in topo.leaves:
            assert len(leaf.ports) == 4 + 2

    def test_spine_ports(self, topo):
        for spine in topo.spines:
            assert len(spine.ports) == 3   # one per leaf

    def test_host_nics_attached(self, topo):
        for h in topo.hosts:
            assert h.nic is not None
            assert h.nic.rate_bps == topo.config.host_rate_bps

    def test_switch_ports_have_markers_hosts_dont(self, topo):
        for sw in topo.switches():
            assert all(p.marker is not None for p in sw.ports)
        for h in topo.hosts:
            assert h.nic.marker is None

    def test_fabric_ports_enumerated(self, topo):
        # leaf->spine and spine->leaf, both directions
        assert len(topo.fabric_ports) == 2 * 3 * 2

    def test_leaf_of(self, topo):
        assert topo.leaf_of("h0") is topo.leaves[0]
        assert topo.leaf_of("h4") is topo.leaves[1]
        assert topo.leaf_of("h11") is topo.leaves[2]


class TestRouting:
    def test_leaf_routes_local_host_directly(self, topo):
        leaf0 = topo.leaves[0]
        for i in range(4):
            route = leaf0.routes[f"h{i}"]
            assert len(route) == 1
            assert leaf0.ports[route[0]].peer is topo.hosts[i]

    def test_leaf_ecmps_remote_hosts_over_all_spines(self, topo):
        leaf0 = topo.leaves[0]
        route = leaf0.routes["h5"]
        assert len(route) == topo.config.n_spine
        peers = {leaf0.ports[i].peer.name for i in route}
        assert peers == {"spine0", "spine1"}

    def test_spine_routes_every_host(self, topo):
        for spine in topo.spines:
            for i in range(12):
                route = spine.routes[f"h{i}"]
                assert len(route) == 1
                leaf = spine.ports[route[0]].peer
                assert leaf is topo.leaf_of(f"h{i}")

    def test_no_route_to_unknown(self, topo):
        assert "h99" not in topo.leaves[0].routes


class TestGraphView:
    """The wired ports form the leaf–spine: every link runs both ways."""

    def test_connected(self, topo):
        adj = wired_neighbours(topo)
        assert len(adj) == 12 + 3 + 2
        assert all(len(hops(adj, n)) == len(adj) for n in adj)
        assert all(a in adj[b] for a in adj for b in adj[a])

    def test_host_degree_one(self, topo):
        adj = wired_neighbours(topo)
        for i in range(12):
            assert adj[f"h{i}"] == {topo.leaf_of(f"h{i}").name}

    def test_path_length_cross_leaf(self, topo):
        # host -> leaf -> spine -> leaf -> host = 4 hops
        dist = hops(wired_neighbours(topo), "h0")
        assert dist["h5"] == 4
        assert dist["h1"] == 2


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TopologyConfig(n_spine=0)

    def test_paper_scale(self):
        cfg = TopologyConfig.paper_scale()
        assert cfg.n_hosts == 288
        assert cfg.n_spine == 6 and cfg.n_leaf == 12
        assert cfg.host_rate_bps == 25e9
        assert cfg.spine_rate_bps == 100e9

    def test_base_rtt_positive(self):
        assert TopologyConfig().base_rtt() > 0
