"""One bottleneck in steady state: N never-ending flows into host h0.

An oracle the code did not write: N long flows through one
``C``-byte/s port should keep it busy and share it equally.  The flows
come from other leaves (pods) through four source NICs, so every
upstream queue receives at most its capacity and only h0's down-port
queues: the leaf–spine and the fat-tree then see the same single
bottleneck, and their numbers must agree as well as the solo network's
and a batch replica's.  After a 20 ms warm-up, over 50 ms:

- the bottleneck is busy 98–100 % of the time;
- every flow makes the same progress;
- solo, batch replica and fat-tree edge-down give the same numbers.

What it also shows (EXPERIMENTS.md, honest-reporting notes): a flow is
credited ``send · min srv_ratio`` bytes, so the per-flow progress sums
to less than the bytes the port serves.
"""

import numpy as np
import pytest

from repro.netsim.batchfluid import BatchFluidNetwork
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.shard import ShardedFluidNetwork
from tests.owner_tables import owner_tables

WARM, MEASURE = 0.02, 0.05
#: bytes a flow sends: it never finishes within the run, and progress
#: over the window keeps ~1e-13 of relative resolution
ENDLESS = 10**10


def _flows(n, sources):
    """``n`` flows into h0, round-robin over four source hosts."""
    return [Flow(k, f"h{sources[k % 4]}", "h0", ENDLESS) for k in range(n)]


def _remaining(net, n):
    """Bytes left of flows ``0..n-1``."""
    left = {fid: float(tab.f_remaining[i]) for tab in owner_tables(net)
            for i, fid in tab.fid_at.items()}
    return np.array([left[k] for k in range(n)])


def _measure(stepper, net, port, n):
    """Utilisation of ``net``'s bottleneck ``port`` and each flow's bytes
    delivered over the measured window, ``stepper`` advancing time."""
    stepper.advance(WARM)
    net.queue_stats()                           # the window starts now
    before = _remaining(net, n)
    stepper.advance(MEASURE)
    capacity = net.config.host_rate_bps / 8.0 * MEASURE
    return (net.port_stats()[port].tx_bytes / capacity,
            before - _remaining(net, n))


def _solo(n):
    net = FluidNetwork(FluidConfig.small(), seed=0)
    net.start_flows(_flows(n, (8, 9, 10, 11)))        # leaf 1
    return _measure(net, net, ("leaf0", 0), n)


def _batch_replica(n):
    batch = BatchFluidNetwork(FluidConfig.small(), seeds=(3, 0))
    batch.view(0).start_flows([Flow(k, f"h{16 + k}", "h8", ENDLESS)
                               for k in range(n)])
    batch.view(1).start_flows(_flows(n, (8, 9, 10, 11)))
    return _measure(batch, batch.view(1), ("leaf0", 0), n)


def _fat_tree(n):
    net = ShardedFluidNetwork(FatTreeConfig.small(), seed=0)
    net.start_flows(_flows(n, (4, 5, 6, 7)))          # pod 1
    return _measure(net, net, ("pod0.edge0", 0), n)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_one_bottleneck_is_busy_and_shared_equally(n):
    results = {kind: run(n) for kind, run in (
        ("solo", _solo), ("batch replica", _batch_replica),
        ("fat-tree", _fat_tree))}
    for kind, (util, progress) in results.items():
        assert 0.98 <= util <= 1.0, (kind, util)
        assert progress.min() > 0
        np.testing.assert_allclose(progress, progress[0], rtol=1e-9,
                                   err_msg=kind)
    util, progress = results["solo"]
    for kind in ("batch replica", "fat-tree"):
        other_util, other_progress = results[kind]
        np.testing.assert_allclose(other_util, util, rtol=1e-12,
                                   err_msg=kind)
        np.testing.assert_allclose(other_progress, progress, rtol=1e-12,
                                   err_msg=kind)
