"""Paper-scale smoke tests: the 288-host fabric of §5.2.

The default :class:`FluidConfig` IS the paper's fabric (6 spines, 12
leaves, 24 hosts/leaf at 25/100 Gbps); these tests prove the library
actually runs at that scale — short horizons keep them in CI budget.
"""

import numpy as np
import pytest

from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.core.training import run_control_loop
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.topology import TopologyConfig
from repro.traffic.generator import PoissonTrafficGenerator, TrafficConfig
from repro.traffic.workloads import WEB_SEARCH


@pytest.fixture(scope="module")
def paper_net():
    cfg = FluidConfig()       # paper scale by construction
    assert cfg.n_hosts == 288
    net = FluidNetwork(cfg, seed=0)
    gen = PoissonTrafficGenerator(net.host_names(), WEB_SEARCH,
                                  rng=np.random.default_rng(1))
    flows = gen.generate(TrafficConfig(load=0.6, duration=5e-3,
                                       host_rate_bps=cfg.host_rate_bps))
    net.start_flows(flows)
    return net, flows


def test_paper_fabric_shape(paper_net):
    net, _ = paper_net
    names = net.switch_names()
    assert len([n for n in names if n.startswith("leaf")]) == 12
    assert len([n for n in names if n.startswith("spine")]) == 6
    # queue count: 288 leaf-down + 72 leaf-up + 72 spine-down
    assert net.n_queues == 288 + 72 + 72


def test_paper_scale_traffic_volume(paper_net):
    net, flows = paper_net
    # 288 hosts at 25G and 60% load for 5 ms ≈ 3.4 GB offered
    offered = sum(f.size_bytes for f in flows)
    capacity = 288 * 25e9 / 8 * 5e-3
    assert offered / capacity == pytest.approx(0.6, rel=0.25)


def test_paper_scale_simulation_advances(paper_net):
    net, flows = paper_net
    net.advance(5e-3)
    stats = net.queue_stats()
    assert len(stats) == 18
    assert len(net.finished_flows) > 100
    util = [s.utilization for s in stats.values()]
    assert all(0.0 <= u <= 1.0 for u in util)


def test_pet_controls_288_host_fabric(paper_net):
    net, _ = paper_net
    pet = PETController(net.switch_names(),
                        PETConfig.fast(delta_t=1e-3, seed=0))
    result = run_control_loop(net, pet, intervals=5, delta_t=1e-3)
    assert result.intervals == 5
    assert len(pet.trainer.agent_ids) == 18


def test_packet_topology_builds_at_paper_scale():
    """The packet model's 288-host fabric constructs (running it for
    seconds is out of unit-test budget, but the wiring must be sound)."""
    from repro.netsim.engine import Simulator
    from repro.netsim.topology import LeafSpineTopology
    topo = LeafSpineTopology(TopologyConfig.paper_scale(), Simulator(),
                             rng=np.random.default_rng(0))
    assert len(topo.hosts) == 288
    assert len(topo.switches()) == 18
    # every leaf routes every host
    for leaf in topo.leaves:
        assert len(leaf.routes) == 288
