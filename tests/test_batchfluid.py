"""Conformance suite for :mod:`repro.netsim.batchfluid`.

The sim-as-batch contract is **bit-identity**.  Every replica of a
:class:`BatchFluidNetwork` must be indistinguishable — canonical
fingerprints (:mod:`repro.fingerprint`) over the full observable
surface — from a solo :class:`FluidNetwork` advanced with the same
seed/config.  These tests pin that contract across replica
counts R ∈ {1, 2, 8}, heterogeneous per-replica ECN configs, mid-run
``set_ecn`` divergence, flow start/finish boundaries, chaos variants,
and mid-episode flow-table growth.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.netsim.batchfluid import BatchCompatError, BatchFluidNetwork
from repro.netsim.ecn import ECNConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.fingerprint import fingerprint
from tests.owner_tables import owner_tables

CFG = FluidConfig.small()

#: heterogeneous ECN menu — deliberately spread from aggressive to lax.
ECNS = [
    ECNConfig(5_000, 50_000, 0.50),
    ECNConfig(30_000, 300_000, 0.10),
    ECNConfig(100_000, 400_000, 0.02),
    ECNConfig(1_000, 20_000, 0.90),
]


def load_traffic(net, seed, n=40, t0=0.0, t1=0.002):
    """Seeded random flow schedule (same seed → same schedule)."""
    rng = np.random.default_rng(seed)
    hosts = net.config.n_hosts
    net.start_flows([
        Flow(flow_id=i, src=f"h{rng.integers(hosts)}",
             dst=f"h{rng.integers(hosts)}",
             size_bytes=int(rng.integers(20_000, 400_000)),
             start_time=float(rng.uniform(t0, t1)))
        for i in range(n)])


def state_fp(net):
    """Canonical fingerprint of everything a solo network exposes.

    Flow columns are fingerprinted up to the high-water mark: slots
    beyond it are unobservable padding whose *count* may legitimately
    differ (solo and batch grow capacity at different moments; growth
    never changes results).
    """
    tab, = owner_tables(net)
    return fingerprint({
        "now": net.now,
        "n_flows": tab.n_flows,
        "qlen": net.q_len.copy(),
        "qcap": net.q_cap.copy(),
        "rate": tab.f_rate.copy(),
        "alpha": tab.f_alpha.copy(),
        "remaining": tab.f_remaining.copy(),
        "active": tab.f_active.copy(),
        "path": tab.f_path.copy(),
        "acc": (net._acc_tx.copy(), net._acc_marked.copy(),
                net._acc_qlen_area.copy(), net._acc_drops.copy(),
                net._acc_time),
        "latencies": list(net.latencies),
        "finished": [(f.flow_id, f.finish_time, f.bytes_acked)
                     for f in net.finished_flows],
        "active_count": net.active_flow_count(),
    })


def stats_fp(stats):
    return fingerprint(stats)


def make_pair(R, *, cfg=CFG, traffic=load_traffic, ecns=None,
              seeds=None, n_flows=40):
    """R solo networks + an equally-configured batch, both loaded."""
    seeds = seeds if seeds is not None else [100 + 7 * r for r in range(R)]
    ecns = ecns if ecns is not None else [ECNS[r % len(ECNS)] for r in range(R)]
    solos = []
    for s, e in zip(seeds, ecns):
        net = FluidNetwork(cfg, seed=s)
        net.set_ecn_all(e)
        traffic(net, s + 1, n=n_flows)
        solos.append(net)
    batch = BatchFluidNetwork(cfg, seeds=seeds, ecn_configs=ecns)
    for r, s in enumerate(seeds):
        traffic(batch.view(r), s + 1, n=n_flows)
    return solos, batch


def assert_replicas_match(solos, batch):
    for r, solo in enumerate(solos):
        assert state_fp(solo) == state_fp(batch.view(r)), f"replica {r}"


# ------------------------------------------------------------ core contract
class TestConformance:
    @pytest.mark.parametrize("R", [1, 2, 8])
    def test_bit_identical_heterogeneous_ecn(self, R):
        """R replicas with distinct seeds + ECN configs, several intervals:
        state AND queue_stats (which resets the interval) match solo."""
        solos, batch = make_pair(R)
        for _ in range(4):
            for net in solos:
                net.advance(0.001)
            batch.advance(0.001)
            assert_replicas_match(solos, batch)
            solo_stats = [net.queue_stats() for net in solos]
            batch_stats = batch.queue_stats()
            for r in range(R):
                assert stats_fp(solo_stats[r]) == stats_fp(batch_stats[r])
        # post-reset accumulators must match too
        assert_replicas_match(solos, batch)

    def test_flow_observations_indistinguishable(self):
        solos, batch = make_pair(2)
        for net in solos:
            net.advance(0.001)
        batch.advance(0.001)
        for r, solo in enumerate(solos):
            assert fingerprint(solo._snapshot_observations().rows()) \
                == fingerprint(batch.view(r)._snapshot_observations().rows())

    def test_start_finish_boundaries(self):
        """Flows that start mid-run (incl. exactly on a step edge), finish
        mid-run, and one replica entirely idle until late — the empty-
        replica masked path must be exercised and stay bit-identical."""
        windows = [(0.0, 0.0005), (0.004, 0.006), (0.0, 0.004)]

        def traffic(net, seed, n):
            r = (seed - 1 - 100) // 7
            t0, t1 = windows[r]
            load_traffic(net, seed, n=n, t0=t0, t1=t1)
            # deterministic on-the-step-edge start
            net.start_flow(Flow(flow_id=999, src="h0", dst="h9",
                                size_bytes=90_000,
                                start_time=net.config.step_dt * 10))

        solos, batch = make_pair(3, traffic=traffic, n_flows=20)
        for _ in range(8):
            for net in solos:
                net.advance(0.001)
            batch.advance(0.001)
            assert_replicas_match(solos, batch)
        assert all(net.finished_flows for net in solos)

    def test_mid_run_set_ecn_divergence(self):
        """Retuning one replica's switch mid-run diverges that replica and
        only that replica — still bit-identical to the matching solo."""
        solos, batch = make_pair(3, n_flows=60)
        for net in solos:
            net.advance(0.001)
        batch.advance(0.001)
        solos[1].set_ecn("leaf0", ECNConfig(800, 9_000, 1.0))
        batch.view(1).set_ecn("leaf0", ECNConfig(800, 9_000, 1.0))
        before2 = state_fp(solos[2])
        for net in solos:
            net.advance(0.003)
        batch.advance(0.003)
        assert_replicas_match(solos, batch)
        # sanity: the divergence was real, and replica 2 advanced
        assert state_fp(solos[1]) != state_fp(solos[0])
        assert state_fp(solos[2]) != before2


# ------------------------------------------------------------ chaos variants
class TestChaosVariants:
    def test_uplink_failure_and_degradation(self):
        """Chaos variants per replica: link failures on one, capacity
        degradation on another, untouched control on a third."""
        solos, batch = make_pair(3, n_flows=60)
        for net in solos:
            net.advance(0.001)
        batch.advance(0.001)
        solos[0].fail_uplinks(0.5, rng=np.random.default_rng(42))
        batch.view(0).fail_uplinks(0.5, rng=np.random.default_rng(42))
        solos[1].set_fabric_capacity_factor(0.25)
        batch.view(1).set_fabric_capacity_factor(0.25)
        for net in solos:
            net.advance(0.002)
        batch.advance(0.002)
        assert_replicas_match(solos, batch)
        # recovery is part of the variant
        solos[0].restore_uplinks()
        batch.view(0).restore_uplinks()
        solos[1].set_fabric_capacity_factor(1.0)
        batch.view(1).set_fabric_capacity_factor(1.0)
        for net in solos:
            net.advance(0.002)
        batch.advance(0.002)
        assert_replicas_match(solos, batch)


# ------------------------------------------------------------ growth
class TestGrowAliasing:
    """Flow-table growth while batched: a replica that fills its row
    regrows the one table every replica steps in."""

    def test_grow_mid_episode_keeps_fingerprints(self):
        cfg = replace(CFG, initial_flow_capacity=2)
        solos, batch = make_pair(2, cfg=cfg, n_flows=30)
        assert batch._table.cap == 2
        for _ in range(6):
            for net in solos:
                net.advance(0.001)
            batch.advance(0.001)
            assert_replicas_match(solos, batch)
        assert batch._table.cap > 2, "test never forced growth"
        # every replica still reaches its flows through the batch's table
        for r, net in enumerate(batch.views()):
            assert net._table is batch._table and net._owners == range(r, r + 1)

    def test_grow_via_free_slot_high_water(self):
        """Growth from the high-water mark (no recycled slots available)."""
        cfg = replace(CFG, initial_flow_capacity=1)
        batch = BatchFluidNetwork(cfg, seeds=(0, 1))
        solo = FluidNetwork(cfg, seed=0)
        flows = [Flow(flow_id=i, src=f"h{i}", dst=f"h{i + 8}",
                      size_bytes=200_000, start_time=0.0)
                 for i in range(6)]
        solo.start_flows([replace_flow(f) for f in flows])
        batch.view(0).start_flows([replace_flow(f) for f in flows])
        solo.advance(0.002)
        batch.advance(0.002)
        assert state_fp(solo) == state_fp(batch.view(0))


    def test_replica_with_free_slots_does_not_regrow_the_batch(self):
        """A replica whose four-slot row is full of finished flows takes
        the next flow into a recycled slot: the table does not regrow."""
        cfg = replace(CFG, initial_flow_capacity=4)
        batch = BatchFluidNetwork(cfg, seeds=(0, 1))
        net = batch.view(1)
        net.start_flows([Flow(i, f"h{i}", f"h{i + 8}", 10_000)
                         for i in range(4)])
        batch.advance(0.002)
        assert len(net.finished_flows) == 4
        net.start_flow(Flow(4, "h0", "h8", 10_000, start_time=net.now))
        batch.advance(0.002)
        assert len(net.finished_flows) == 5
        assert batch._table.cap == 4


def replace_flow(f):
    return Flow(flow_id=f.flow_id, src=f.src, dst=f.dst,
                size_bytes=f.size_bytes, start_time=f.start_time)


# ------------------------------------------------------------ adopt / split
class TestAdoptSplit:
    def test_from_networks_mid_run(self):
        solos, _ = make_pair(2)
        twins, _ = make_pair(2)
        for net in solos + twins:
            net.advance(0.002)
        batch = BatchFluidNetwork.from_networks(twins)
        for net in solos:
            net.advance(0.002)
        batch.advance(0.002)
        assert_replicas_match(solos, batch)

    def test_split_round_trip(self):
        """batch → split → solo stepping continues bit-identically."""
        solos, batch = make_pair(2)
        for net in solos:
            net.advance(0.002)
        batch.advance(0.002)
        freed = batch.split()
        for net in solos:
            net.advance(0.002)
        for net in freed:
            net.advance(0.002)
        for solo, net in zip(solos, freed):
            assert state_fp(solo) == state_fp(net)

    def test_attached_replica_refuses_solo_advance(self):
        _, batch = make_pair(2)
        with pytest.raises(RuntimeError, match="split"):
            batch.view(0).advance(0.001)

    def test_split_batch_refuses_further_use(self):
        _, batch = make_pair(2)
        batch.split()
        with pytest.raises(RuntimeError):
            batch.advance(0.001)

    def test_view_is_live_shared_storage(self):
        _, batch = make_pair(2)
        v = batch.view(1)
        assert v is batch.view(1)
        v.kmin[:] = 123.0
        assert float(batch.kmin[batch.n_queues]) == 123.0


# ------------------------------------------------------------ validation
class TestValidation:
    def test_rejects_mismatched_topology(self):
        a = FluidNetwork(CFG, seed=0)
        b = FluidNetwork(replace(CFG, n_leaf=CFG.n_leaf + 1), seed=0)
        with pytest.raises(BatchCompatError):
            BatchFluidNetwork.from_networks([a, b])

    def test_rejects_mismatched_time(self):
        a = FluidNetwork(CFG, seed=0)
        b = FluidNetwork(CFG, seed=1)
        a.advance(0.001)
        with pytest.raises(BatchCompatError, match="time"):
            BatchFluidNetwork.from_networks([a, b])

    def test_rejects_double_adoption(self):
        a = FluidNetwork(CFG, seed=0)
        BatchFluidNetwork.from_networks([a])
        with pytest.raises(BatchCompatError, match="already"):
            BatchFluidNetwork.from_networks([a])

    def test_rejects_a_network_given_twice(self):
        """Batched twice, one network would be stepped twice per Δt (its
        flows finished at twice the solo time)."""
        a = FluidNetwork(CFG, seed=0)
        with pytest.raises(BatchCompatError, match="twice"):
            BatchFluidNetwork.from_networks([a, a])
        a.advance(0.001)                # left untouched: still solo

    def test_rejects_empty_batch(self):
        with pytest.raises(BatchCompatError):
            BatchFluidNetwork.from_networks([])
        with pytest.raises(BatchCompatError):
            BatchFluidNetwork(CFG, seeds=())

    def test_rejects_bad_ecn_list(self):
        with pytest.raises(BatchCompatError):
            BatchFluidNetwork(CFG, seeds=(0, 1), ecn_configs=[ECNS[0]])

    def test_tolerates_default_ecn_and_capacity_differences(self):
        """Those two config fields never reach the kernel shape."""
        a = FluidNetwork(replace(CFG, initial_flow_capacity=8), seed=0)
        b = FluidNetwork(replace(CFG, default_ecn=ECNS[3]), seed=1)
        batch = BatchFluidNetwork.from_networks([a, b])
        batch.advance(0.001)
