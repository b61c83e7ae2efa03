"""Regression guards for bugs found and fixed during development."""

import numpy as np
import pytest

from repro.baselines.acc import ACCConfig, ACCController
from repro.core.action import ActionCodec
from repro.core.config import PETConfig
from repro.core.ecn_cm import ECNConfigModule
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.traffic.cdf import PiecewiseCDF


class DummyNetwork:
    def __init__(self):
        self.applied = []

    def set_ecn(self, switch, config):
        self.applied.append((switch, config))


class TestECNCMClockReset:
    """Bug: a controller pre-trained on one simulation carried its
    rate-limit clock to a fresh simulation whose time restarts at 0,
    suppressing every tuning forever (ACC looked identical to SECN1)."""

    def test_backwards_time_resets_rate_limit(self):
        mod = ECNConfigModule("leaf0", ActionCodec.compact(),
                              min_interval=1e-3)
        net = DummyNetwork()
        assert mod.apply(0, now=5.0, network=net) is not None   # training net
        # deployment network starts at t=0 — must NOT be suppressed
        assert mod.apply(1, now=0.001, network=net) is not None
        assert mod.suppressed == 0

    def test_acc_controls_fresh_network_after_pretraining(self):
        def fresh_net(seed):
            net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2,
                                           hosts_per_leaf=2,
                                           host_rate_bps=10e9,
                                           spine_rate_bps=40e9), seed=seed)
            net.start_flow(Flow(1, "h0", "h2", 50_000_000))
            return net

        base = PETConfig(seed=0, delta_t=1e-3)
        acc = ACCController(["leaf0", "leaf1", "spine0"],
                            ACCConfig(base=base, seed=0))
        train = fresh_net(0)
        for _ in range(3):
            train.advance(1e-3)
            acc.decide(train.queue_stats(), train.now, train)
        # move to a new simulation whose clock restarts
        deploy = fresh_net(1)
        deploy.advance(1e-3)
        applied = acc.decide(deploy.queue_stats(), deploy.now, deploy)
        assert applied, "tunings must not be suppressed on the new network"


class TestCDFAtomMean:
    """Bug: a first CDF knot with positive probability is a point mass
    (inverse sampling clamps there) that mean() originally ignored."""

    def test_point_mass_included(self):
        cdf = PiecewiseCDF([(1, 0.5), (2, 1.0)])
        # 0.5 mass at 1, plus uniform on [1,2] with mass 0.5
        assert cdf.mean() == pytest.approx(0.5 * 1 + 0.5 * 1.5)
        rng = np.random.default_rng(0)
        assert np.mean(cdf.sample(rng, 100_000)) == pytest.approx(
            cdf.mean(), rel=0.01)


class TestRewardPerQueueNormalization:
    """Bug: the reward's La term used switch-total occupancy, saturating
    to ~0 on any busy switch so agents learned to maximize utilization
    with megabyte queues."""

    def test_same_per_queue_occupancy_same_reward(self):
        from repro.core.reward import RewardComputer
        from repro.core.state import TelemetryColumns
        from repro.netsim.network import QueueStats

        def stats(total_qlen, n_queues):
            return QueueStats(switch="s", interval=1e-3,
                              qlen_bytes=total_qlen,
                              max_port_qlen_bytes=total_qlen,
                              avg_qlen_bytes=total_qlen,
                              tx_bytes=0, tx_marked_bytes=0, dropped_pkts=0,
                              capacity_bps=1e9, ecn=None, n_queues=n_queues)

        rc = RewardComputer(PETConfig(beta1=0.0, beta2=1.0))   # La alone
        # 10 queues at 50KB each vs 1 queue at 50KB: same La
        busy, single = rc.compute_fleet(
            TelemetryColumns([stats(500_000, 10), stats(50_000, 1)]))
        assert busy == pytest.approx(single)


class TestFluidSlotRecycling:
    """Bug: finished flows never returned their array slots, so the
    per-step vector work grew with cumulative (not concurrent) flows."""

    def test_free_list_recycles(self):
        net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9), seed=0)
        net.start_flow(Flow(1, "h0", "h2", 10_000))
        net.advance(5e-3)
        assert net.flows[1].done
        assert net._table.free == [[0]]     # slot returned
        net.start_flow(Flow(2, "h0", "h2", 10_000, start_time=net.now))
        net.advance(5e-3)
        assert net.flows[2].done
        assert net._table.n_flows == [1]    # second flow reused the slot


class TestUnseededFallbackRNGs:
    """Bug (found by lint rule PET002): seven components fell
    back to ``np.random.default_rng()`` — OS entropy — when no Generator
    was injected, so "default" simulations were silently nondeterministic.
    The fallbacks are now seeded (``default_rng(0)``)."""

    def test_topology_default_rng_is_deterministic(self):
        from repro.netsim.engine import Simulator
        from repro.netsim.topology import LeafSpineTopology, TopologyConfig

        def marker_probe(topo):
            # the marker RNG streams are derived from the topology rng
            sw = topo.leaves[0]
            m = sw.ports[0].marker
            return [m.rng.random() for _ in range(10)]

        cfg = TopologyConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2)
        p1 = marker_probe(LeafSpineTopology(cfg, Simulator()))
        p2 = marker_probe(LeafSpineTopology(cfg, Simulator()))
        assert p1 == p2

    def test_failure_injector_default_rng_is_deterministic(self):
        from repro.netsim.network import PacketNetwork
        from repro.netsim.topology import TopologyConfig

        def failed_set():
            net = PacketNetwork(TopologyConfig(n_spine=2, n_leaf=4,
                                               hosts_per_leaf=2))
            net.fail_uplinks(0.5)      # draws from the network's own rng
            return [(sw, i) for sw, i in net.topology.fabric_ports
                    if not net.topology.node(sw).ports[i].up]

        assert failed_set() == failed_set()

    def test_policy_and_replay_default_rngs_are_deterministic(self):
        from repro.rl.ippo import IPPOTrainer
        from repro.rl.ppo import PPOConfig
        from repro.rl.replay import ReplayBuffer, Transition
        from repro.rl.stacked import PackedMLP

        # a network has no fallback generator: its rows are drawn from
        # the ones it is given, and a seeded agent acts reproducibly
        with pytest.raises(TypeError):
            PackedMLP([4, 8, 3])    # type: ignore[call-arg]
        obs = np.zeros(4)
        cfg = PPOConfig(obs_dim=4, n_actions=3, hidden=(8,), seed=0)
        a1 = [IPPOTrainer(["a"], cfg).act({"a": obs}, epsilon=0.5)["a"][
            "action"] for _ in range(20)]
        a2 = [IPPOTrainer(["a"], cfg).act({"a": obs}, epsilon=0.5)["a"][
            "action"] for _ in range(20)]
        assert a1 == a2

        def sample_ids():
            buf = ReplayBuffer(capacity=64)
            for i in range(32):
                buf.push(Transition(np.zeros(2), i, 0.0, np.zeros(2), False))
            batch = buf.sample(8)
            return [int(a) for a in np.atleast_1d(batch[1])]

        assert sample_ids() == sample_ids()
