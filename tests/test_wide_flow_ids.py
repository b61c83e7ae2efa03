"""Flow ids across the whole of ``[0, 2**64)`` reach the NCM.

Both simulators accept any id in ``[0, 2**64)``; their per-flow
telemetry (:class:`~repro.netsim.network.FlowRows`) is int64, so an id
is kept as its 64 bits and one from ``2**63`` reads negative.  PET's
fleet NCM renumbers ids too wide to pack with a switch index, the
int64 minimum included.
"""

import numpy as np
import pytest

from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.network import PacketNetwork

WIDE_IDS = (7, 2**63, 2**64 - 1)


def _fluid():
    return FluidNetwork(FluidConfig.small(), seed=0), "h9", 1e-3


def _packet():
    return PacketNetwork(seed=0), "h5", 2e-4


@pytest.mark.parametrize("make", [_fluid, _packet], ids=["fluid", "packet"])
def test_ids_from_2_63_are_listed_and_counted(make):
    net, dst, dt = make()
    net.start_flows([Flow(fid, f"h{i}", dst, 20_000_000)
                     for i, fid in enumerate(WIDE_IDS)])
    pet = PETController(net.switch_names(), PETConfig(delta_t=dt, seed=0))
    leaf = net.switch_names().index("leaf1")        # the receiver's leaf
    bits = set(np.array(WIDE_IDS, dtype=np.uint64).view(np.int64).tolist())
    for _ in range(3):
        net.advance(dt)
        stats = net.queue_stats()
        table, _ = stats["leaf1"].flow_rows
        sw, fid = table.rows()[:2]
        assert set(fid[sw == leaf].tolist()) == bits
        assert set(pet.decide(stats, net.now, net)) <= set(stats)
        assert pet.observer.ncm.analyze()[2][leaf] == 3


def test_id_2_63_does_not_collide_with_id_0_in_the_ncm():
    """As int64, ``2**63`` is the minimum, whose ``abs`` wraps to
    itself; packed with the switch index it would share flow 0's key,
    and the flow that is still running would supersede the window's
    entries of the one that finished."""
    net = FluidNetwork(FluidConfig.small(), seed=0)
    net.start_flows([Flow(0, "h0", "h9", 1_500_000),
                     Flow(2**63, "h1", "h9", 20_000_000)])
    pet = PETController(net.switch_names(), PETConfig(delta_t=1e-3, seed=0))
    for _ in range(5):
        net.advance(1e-3)
        pet.decide(net.queue_stats(), net.now, net)
    assert net.active_flow_count() == 1     # flow 0 is done ...
    # ... and still in every window that saw it
    assert pet.observer.ncm.analyze()[2].tolist() == [2, 2, 0, 0, 0, 2]
