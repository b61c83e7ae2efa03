"""Per-queue byte ledger: every byte that arrives at a queue is served,
dropped or still queued.

Over a run with no ``queue_stats()`` reset, for every queue ``q``::

    Σ arrival[q]·Δt == _acc_tx[q] + _acc_drops[q] + (q_len[q] at the end − at the start)

to a relative 1e-12, on a solo network, every replica of a batch and a
fat-tree.  The arrivals are what ``flow_phase`` hands the step, taken by
wrapping it, so the ledger does not rest on the integration it checks;
the fat-tree steps each ``advance`` on a block of its queues, and the
block's arrivals are mapped back to queue ids through the window's queue
list.  Buffers small enough for incast to drop bytes put the drop term
in it.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import fluid as fluid_mod
from repro.netsim.batchfluid import BatchFluidNetwork
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.shard import ShardedFluidNetwork


def _load(net, n_flows, seed):
    """Random flows, half of them into two hot hosts (incast)."""
    rng = np.random.default_rng(seed)
    hosts = net.config.n_hosts
    hot = rng.choice(hosts, size=2, replace=False)
    flows = []
    for i in range(n_flows):
        dst = int(rng.choice(hot) if i % 2 else rng.integers(hosts))
        src = int((dst + rng.integers(1, hosts)) % hosts)
        flows.append(Flow(i, f"h{src}", f"h{dst}",
                          int(rng.integers(20_000, 2_000_000)),
                          start_time=float(rng.uniform(0, 1e-3))))
    net.start_flows(flows)


def _ledger_run(kind, n_flows, seed, buffer_bytes, steps):
    """Run ``kind`` for ``steps`` sub-steps; returns, per network that
    owns queues, (Σ arrival·Δt, tx + drops + Δq_len) and its drops."""
    if kind == "fat_tree":
        cfg = dataclasses.replace(FatTreeConfig(), switch_buffer_bytes=buffer_bytes)
        stepper = ShardedFluidNetwork(cfg, seed=seed)
        nets = [stepper]
    else:
        cfg = dataclasses.replace(FluidConfig.small(),
                                  switch_buffer_bytes=buffer_bytes)
        if kind == "solo":
            stepper = FluidNetwork(cfg, seed=seed)
            nets = [stepper]
        else:
            stepper = BatchFluidNetwork(cfg, seeds=(seed, seed + 1, seed + 2))
            nets = stepper.views()
    for r, net in enumerate(nets):
        _load(net, n_flows + 5 * r, seed + r)
    start = [net.q_len.copy() for net in nets]
    arrived = np.zeros(sum(len(q) for q in start))
    real = fluid_mod.flow_phase
    #: the open window's queue ids (the fat-tree's); all of them otherwise
    window = [slice(None)]
    open_window = stepper._open_window

    def opened(*args):
        q, qmap = open_window(*args)
        if qmap is not None:
            window[0] = q.queues
        return q, qmap

    def spy(*args, **kwargs):
        _, arrival, on_path = out = real(*args, **kwargs)
        # a queue is fed only from the on-path hops the step integrates
        assert np.isin(np.flatnonzero(arrival), on_path).all()
        arrived[window[0]] += arrival * cfg.step_dt
        return out

    with mock.patch.object(fluid_mod, "flow_phase", spy), \
            mock.patch.object(stepper, "_open_window", opened):
        stepper.advance(steps * cfg.step_dt)
    out, lo = [], 0
    for net, q0 in zip(nets, start):
        hi = lo + len(q0)
        out.append((arrived[lo:hi],
                    net._acc_tx + net._acc_drops + (net.q_len - q0),
                    net._acc_drops.sum()))
        lo = hi
    return out


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["solo", "batch", "fat_tree"]),
       n_flows=st.integers(1, 40), seed=st.integers(0, 2**16),
       buffer_bytes=st.sampled_from([20_000, 150_000, 9_000_000]),
       steps=st.integers(1, 120))
def test_every_queue_balances_its_bytes(kind, n_flows, seed, buffer_bytes,
                                        steps):
    for arrived, accounted, _ in _ledger_run(kind, n_flows, seed,
                                             buffer_bytes, steps):
        np.testing.assert_allclose(accounted, arrived, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["solo", "batch", "fat_tree"])
def test_ledger_holds_through_heavy_drops(kind):
    """A 20 kB buffer under incast: megabytes dropped, not one lost."""
    for arrived, accounted, dropped in _ledger_run(kind, 40, 7, 20_000, 200):
        assert dropped > 1e6
        np.testing.assert_allclose(accounted, arrived, rtol=1e-12, atol=0)
