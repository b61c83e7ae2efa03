"""The interval accumulators are one ``(4, Q)`` block, ``_acc``, and
``_acc_tx``, ``_acc_marked``, ``_acc_qlen_area`` and ``_acc_drops`` are
its row views: a sub-step adds its four increments with one call, and
``queue_stats`` resets them with one fill.  A name that stopped being a
view would keep counting on its own and silently drop out of the step or
the statistics, so a write through any one name must reach every other
— on a solo network, on every replica of a batch (whose view holds a
column block of the batch's block) after ``from_networks`` and after
``split()``, after a ``queue_stats()`` reset, and on a fat-tree after a
window closes."""

import numpy as np

from repro.netsim.batchfluid import BatchFluidNetwork
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.shard import ShardedFluidNetwork

#: the row names, in block order, named here and not taken from ``src/``
ROWS = ("_acc_tx", "_acc_marked", "_acc_qlen_area", "_acc_drops")


def _assert_aliased(holder, n_queues):
    """Every write through one name shows through every other."""
    acc = holder._acc
    assert acc.shape == (4, n_queues)
    before = acc.copy()
    for i, name in enumerate(ROWS):
        getattr(holder, name)[-1] = 100.0 + i
        assert acc[i, -1] == 100.0 + i, name
    acc[:, 0] = (1.0, 2.0, 3.0, 4.0)
    assert [getattr(holder, name)[0] for name in ROWS] == [1.0, 2.0, 3.0,
                                                           4.0]
    for i, name in enumerate(ROWS):
        assert np.shares_memory(getattr(holder, name), acc), name
        assert getattr(holder, name).shape == (n_queues,)
    acc[...] = before


def _load(net, n=30, seed=0):
    rng = np.random.default_rng(seed)
    hosts = net.config.n_hosts
    net.start_flows([Flow(i, f"h{s}", f"h{(s + 1 + o) % hosts}",
                          int(rng.integers(20_000, 400_000)),
                          start_time=float(rng.uniform(0, 1e-3)))
                     for i, (s, o) in enumerate(zip(
                         rng.integers(hosts, size=n),
                         rng.integers(hosts - 1, size=n)))])


def test_solo_rows_are_views_of_the_block():
    net = FluidNetwork(FluidConfig.small(), seed=0)
    _assert_aliased(net, net.n_queues)
    _load(net)
    net.advance(2e-3)
    assert net._acc_tx.any()
    _assert_aliased(net, net.n_queues)
    net.queue_stats()
    assert not net._acc.any() and net._acc_time == 0.0
    _assert_aliased(net, net.n_queues)


def test_batch_views_hold_column_blocks_of_the_batch_block():
    nets = [FluidNetwork(FluidConfig.small(), seed=s) for s in range(3)]
    for s, net in enumerate(nets):
        _load(net, seed=s)
        net.advance(1e-3)           # mid-run state is taken as it is
    sums = [net._acc.copy() for net in nets]
    batch = BatchFluidNetwork.from_networks(nets)
    q = batch.n_queues
    _assert_aliased(batch, 3 * q)
    for r in range(3):
        view = batch.view(r)
        assert view._acc.tobytes() == sums[r].tobytes()
        _assert_aliased(view, q)
        # a write through the replica lands in its block of the batch's,
        # and in no other replica's
        view._acc_drops[1] = 7.0
        assert batch._acc[3, r * q + 1] == 7.0
        assert [batch.view(o)._acc_drops[1] == 7.0
                for o in range(3)] == [o == r for o in range(3)]
        view._acc_drops[1] = sums[r][3, 1]
    batch.advance(1e-3)
    for r in range(3):
        _assert_aliased(batch.view(r), q)
    batch.view(1).queue_stats()
    assert not batch._acc[:, q:2 * q].any()
    assert batch._acc[:, :q].any() and batch._acc[:, 2 * q:].any()
    for net in batch.split():
        _assert_aliased(net, q)
        assert not np.shares_memory(net._acc, batch._acc)
        net.advance(1e-3)
        _assert_aliased(net, q)


def test_fattree_block_and_window_block_alias_after_windows():
    net = ShardedFluidNetwork(FatTreeConfig.small(), seed=0)
    _assert_aliased(net, net.n_queues)
    _load(net, n=40)
    blocks = []
    open_window = net._open_window

    def opened(*args):
        q, qmap = open_window(*args)
        blocks.append(q)
        _assert_aliased(q, len(q.queues))
        return q, qmap

    net._open_window = opened
    for _ in range(3):
        net.advance(1e-3)
        _assert_aliased(net, net.n_queues)
        # the window's block went back into the fabric's, all four rows
        q = blocks[-1]
        assert net._acc[:, q.queues].tobytes() == q._acc.tobytes()
    assert net._acc_tx.any()
    net.queue_stats()
    assert not net._acc.any()
    _assert_aliased(net, net.n_queues)
