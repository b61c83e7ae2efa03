"""Pinned end-to-end fingerprints of the controller tick, and the proof
that it builds no per-flow objects.

Each digest covers the ECN triples a controller applied, in order, and
its ``state_dict()`` after the run — so telemetry → NCM → state →
history → reward → agent → ECN-CM all have to agree, bit for bit, with
the per-switch ``NetworkConditionMonitor``/``StateBuilder``/
``HistoryWindow`` pipeline the digests were captured from.
"""

import numpy as np
import pytest

from repro.baselines.acc import ACCConfig, ACCController
from repro.core.config import PETConfig
from repro.core.multiqueue import MultiQueuePETController
from repro.core.pet import PETController
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.network import PacketNetwork
from repro.netsim.shard import ShardedFluidNetwork
from repro.netsim.topology import TopologyConfig
from repro.fingerprint import fingerprint
from repro.resilience.guard import ResilientController
from tests.flow_rows import count_row_builds

DT = 1e-3

_LEAF_SPINE = FluidConfig(n_spine=2, n_leaf=3, hosts_per_leaf=4,
                          host_rate_bps=10e9, spine_rate_bps=40e9)
_FAT_TREE = FatTreeConfig(n_pods=4, edge_per_pod=2, agg_per_pod=2,
                          core_per_agg=1, hosts_per_edge=2,
                          host_rate_bps=10e9, agg_rate_bps=40e9,
                          core_rate_bps=40e9)
_PACKET = TopologyConfig(n_spine=1, n_leaf=2, hosts_per_leaf=3,
                         host_rate_bps=2e8, spine_rate_bps=8e8)


def _load(net, n_hosts, n_flows, seed, *, span, sizes, hot=None):
    """Random pairs over ``span`` seconds; every third flow converges on
    host ``hot`` so the incast degree moves."""
    rng = np.random.default_rng(seed)
    flows = []
    for i in range(n_flows):
        src, dst = rng.choice(n_hosts, size=2, replace=False)
        if hot is not None and i % 3 == 0 and src != hot:
            dst = hot
        flows.append(Flow(i, f"h{src}", f"h{dst}",
                          int(rng.integers(*sizes)),
                          start_time=float(rng.uniform(0, span))))
    net.start_flows(flows)


def _fluid():
    net = FluidNetwork(_LEAF_SPINE, seed=2)
    _load(net, 12, 260, seed=5, span=0.11, sizes=(20_000, 3_000_000), hot=9)
    return net


def _fat_tree():
    net = ShardedFluidNetwork(_FAT_TREE, seed=2)
    _load(net, _FAT_TREE.n_hosts, 300, seed=6, span=0.11,
          sizes=(20_000, 3_000_000), hot=5)
    return net


def _packet():
    net = PacketNetwork(_PACKET, seed=2)
    _load(net, 6, 60, seed=7, span=0.1, sizes=(5_000, 400_000), hot=4)
    return net


def _pet(net, **overrides):
    cfg = PETConfig.fast(seed=0, delta_t=DT, update_interval=100, **overrides)
    return PETController(net.switch_names(), cfg)


def _run(net, controller, ticks, *, absent=None):
    """advance → queue_stats → decide; ``absent = (switch, lo, hi)`` drops
    one switch's record for ticks ``lo <= i < hi``."""
    applied = []
    for i in range(ticks):
        net.advance(DT)
        stats = net.queue_stats()
        if absent is not None and absent[1] <= i < absent[2]:
            stats.pop(absent[0])
        for switch, cfg in controller.decide(stats, net.now, net).items():
            applied.append((switch, cfg.kmin_bytes, cfg.kmax_bytes, cfg.pmax))
    assert applied
    return fingerprint({"ecn": applied, "state": controller.state_dict()})


def _pet_fluid():
    net = _fluid()
    return _run(net, _pet(net), 120, absent=("leaf1", 30, 36))


def _pet_fat_tree():
    """An 80-entry NCM budget: threshold sweeps fire on the busy switches
    only, so per-switch retention diverges from the fleet's."""
    net = _fat_tree()
    pet = _pet(net, ncm_memory_threshold_bytes=48 * 80)
    digest = _run(net, pet, 120)
    sweeps = pet.observer.ncm.cleanups_threshold
    assert 0 in sweeps and sweeps.max() > 0
    return digest


def _pet_packet():
    """A switch's flows reach its record in the order its queues last
    saw them, which orders the threshold sweep inside a slot."""
    net = _packet()
    pet = _pet(net, ncm_memory_threshold_bytes=48 * 200)
    digest = _run(net, pet, 120)
    assert pet.observer.ncm.cleanups_threshold.any()
    return digest


def _acc_fluid():
    net = _fluid()
    acc = ACCController(net.switch_names(),
                        ACCConfig(base=PETConfig.fast(seed=0, delta_t=DT),
                                  seed=0))
    return _run(net, acc, 60, absent=("spine0", 20, 23))


def _run_multiqueue(net, ticks, *, absent=None, **overrides):
    """advance → port_stats → queue_stats → decide, per-queue; ``absent``
    as in :func:`_run`, dropping the switch's switch-level record (so its
    ports sit the ticks out)."""
    cfg = PETConfig.fast(seed=0, delta_t=DT, update_interval=20, **overrides)
    ctrl = MultiQueuePETController(net.switch_names(), cfg)
    applied = []
    for i in range(ticks):
        net.advance(DT)
        ports = net.port_stats()
        stats = net.queue_stats()
        if absent is not None and absent[1] <= i < absent[2]:
            stats.pop(absent[0])
        for (switch, port), c in ctrl.decide(ports, stats, net.now,
                                             net).items():
            applied.append((switch, port, c.kmin_bytes, c.kmax_bytes, c.pmax))
    assert all(ctrl.trainer.learner.updates >= 2)
    return fingerprint({"ecn": applied, "state": ctrl.state_dict()})


def _multiqueue_fluid():
    return _run_multiqueue(_fluid(), 64, absent=("leaf1", 10, 14))


def _multiqueue_packet():
    return _run_multiqueue(_packet(), 64, absent=("spine0", 30, 33),
                           ncm_memory_threshold_bytes=48 * 200)


#: captured at commit d613a8d (the parent of the fleet observer), where
#: every switch ran its own dict-merging ``NetworkConditionMonitor``; the
#: multi-queue digests were captured while the multi-queue controller
#: still ran one such monitor, one-row history window and per-record
#: reward per queue.
_PINNED = {
    "pet_fluid":
        "beef1b539115e898b13ca52d73f83189b4b39c6c73545e89f36ce9e64fa506de",
    "pet_fat_tree":
        "fdc7fa58abfec4386402ee2374c5cabd21806dcebd5eda3eeca38e6f5d4220b8",
    # re-pinned when packet records started to list only the flows still
    # active at collection (was a88384811fcd2b19…): finished flows had
    # stayed in every record, and the NCM counted them
    "pet_packet":
        "101f1a6882488af7032de41c383300f9c573035b171dd87da1ff4fd88ce4abf9",
    "acc_fluid":
        "d2cbed04fa9bdd6b2d90c42de29f3a468e76b75e8bba80655b2eeba859a1a176",
    "multiqueue_fluid":
        "be1fd9e5419118a080ff6150a34e953d46144afc106b738f9c5529cd5350f145",
    "multiqueue_packet":
        "aafac01da95a8a7ee2478bab23842befed892a7927b51c429a1e959b682c7649",
}

_RUNS = {"pet_fluid": _pet_fluid, "pet_fat_tree": _pet_fat_tree,
         "pet_packet": _pet_packet, "acc_fluid": _acc_fluid,
         "multiqueue_fluid": _multiqueue_fluid,
         "multiqueue_packet": _multiqueue_packet}


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_pinned_fingerprint(name):
    assert _RUNS[name]() == _PINNED[name]


# ---------------------------------------------------- no per-flow objects
@pytest.fixture
def rows_built(monkeypatch):
    """The fluid collection tables whose rows were built."""
    return count_row_builds(monkeypatch)


def _controllers(net):
    names = net.switch_names()
    pet = PETController(names, PETConfig.fast(seed=0, delta_t=DT))
    acc = ACCController(names, ACCConfig(
        base=PETConfig.fast(seed=0, delta_t=DT), seed=0))
    guarded = ResilientController(
        PETController(names, PETConfig.fast(seed=1, delta_t=DT)), names)
    return {"pet": pet, "acc": acc, "guarded_pet": guarded}


@pytest.mark.parametrize("kind", ["leaf_spine", "fat_tree"])
@pytest.mark.parametrize("who", ["pet", "acc", "guarded_pet"])
def test_decide_constructs_no_flow_observation(kind, who, rows_built):
    """No per-flow object on the control path: a decision reads its
    collection's columns, built once and shared by every switch."""
    net = _fluid() if kind == "leaf_spine" else _fat_tree()
    controller = _controllers(net)[who]
    flows_seen = 0
    for tick in range(12):
        net.advance(DT)
        stats = net.queue_stats()
        controller.decide(stats, net.now, net)
        flows_seen += net.active_flow_count()
        assert len(rows_built) == tick + 1
        assert rows_built[-1] is stats[net.switch_names()[0]].flow_rows[0]
    assert flows_seen > 0
