"""Hypothesis property tests for :mod:`repro.netsim.batchfluid`.

Randomized counterparts to the example-based conformance suite: for
random (R, topology, flow-schedule) batches the invariants are

- every replica is bit-identical to a solo ``FluidNetwork`` run with
  the same seed/config (the sim-as-batch contract),
- replica independence — mutating replica i's ECN config never changes
  replica j's fingerprint,
- a batch of one is indistinguishable from a solo network,
- ``split()`` round-trips: detached replicas continue exactly like
  never-batched ones.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.netsim.batchfluid import BatchFluidNetwork
from repro.netsim.ecn import ECNConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.fingerprint import fingerprint

from tests.test_batchfluid import load_traffic, state_fp


topologies = st.builds(
    FluidConfig,
    n_spine=st.integers(1, 2),
    n_leaf=st.integers(2, 3),
    hosts_per_leaf=st.integers(2, 4),
    host_rate_bps=st.just(10e9),
    spine_rate_bps=st.just(40e9),
    initial_flow_capacity=st.sampled_from([2, 64]),
)

ecn_configs = st.builds(
    ECNConfig,
    kmin_bytes=st.integers(1_000, 100_000),
    kmax_bytes=st.integers(150_000, 500_000),
    pmax=st.floats(0.01, 1.0, allow_nan=False),
)


@st.composite
def batches(draw, max_r=4):
    """A random (R, topology, per-replica seed/ECN/schedule) batch spec."""
    cfg = draw(topologies)
    R = draw(st.integers(1, max_r))
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=R, max_size=R,
                          unique=True))
    ecns = draw(st.lists(ecn_configs, min_size=R, max_size=R))
    flow_counts = draw(st.lists(st.integers(0, 25), min_size=R, max_size=R))
    return cfg, seeds, ecns, flow_counts


def _build(cfg, seeds, ecns, flow_counts):
    solos = []
    for s, e, k in zip(seeds, ecns, flow_counts):
        net = FluidNetwork(cfg, seed=s)
        net.set_ecn_all(e)
        if k:
            load_traffic(net, s + 1, n=k)
        solos.append(net)
    batch = BatchFluidNetwork(cfg, seeds=seeds, ecn_configs=ecns)
    for r, (s, k) in enumerate(zip(seeds, flow_counts)):
        if k:
            load_traffic(batch.view(r), s + 1, n=k)
    return solos, batch


@settings(max_examples=15, deadline=None)
@given(batches())
def test_random_batches_bit_identical(spec):
    cfg, seeds, ecns, flow_counts = spec
    solos, batch = _build(cfg, seeds, ecns, flow_counts)
    for _ in range(3):
        for net in solos:
            net.advance(0.001)
        batch.advance(0.001)
    for r, solo in enumerate(solos):
        assert state_fp(solo) == state_fp(batch.view(r))
        assert fingerprint(solo.queue_stats()) == \
            fingerprint(batch.view(r).queue_stats())


@settings(max_examples=10, deadline=None)
@given(batches(max_r=3), st.data())
def test_replica_independence(spec, data):
    """Mutating replica i's ECN config never changes replica j ≠ i."""
    cfg, seeds, ecns, flow_counts = spec
    _, batch = _build(cfg, seeds, ecns, flow_counts)
    _, control = _build(cfg, seeds, ecns, flow_counts)
    batch.advance(0.001)
    control.advance(0.001)
    R = len(seeds)
    i = data.draw(st.integers(0, R - 1), label="mutated replica")
    new_ecn = data.draw(ecn_configs, label="new ecn")
    batch.view(i).set_ecn_all(new_ecn)
    batch.advance(0.002)
    control.advance(0.002)
    for j in range(R):
        same = state_fp(batch.view(j)) == state_fp(control.view(j))
        if j != i:
            assert same, f"replica {j} perturbed by replica {i}'s ECN"


@settings(max_examples=10, deadline=None)
@given(topologies, st.integers(0, 2**16), ecn_configs, st.integers(0, 25))
def test_batch_of_one_equals_solo(cfg, seed, ecn, k):
    solo = FluidNetwork(cfg, seed=seed)
    solo.set_ecn_all(ecn)
    if k:
        load_traffic(solo, seed + 1, n=k)
    batch = BatchFluidNetwork(cfg, seeds=[seed], ecn_configs=[ecn])
    if k:
        load_traffic(batch.view(0), seed + 1, n=k)
    for _ in range(4):
        solo.advance(0.001)
        batch.advance(0.001)
        assert state_fp(solo) == state_fp(batch.view(0))


@settings(max_examples=10, deadline=None)
@given(batches(max_r=3))
def test_split_round_trip(spec):
    cfg, seeds, ecns, flow_counts = spec
    solos, batch = _build(cfg, seeds, ecns, flow_counts)
    for net in solos:
        net.advance(0.002)
    batch.advance(0.002)
    freed = batch.split()
    for net in solos:
        net.advance(0.002)
    for net in freed:
        net.advance(0.002)      # must work standalone post-split
    for solo, net in zip(solos, freed):
        assert state_fp(solo) == state_fp(net)
