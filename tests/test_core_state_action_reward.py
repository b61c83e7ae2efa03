"""Tests for PET's config, state builder, action codec, and reward."""

import numpy as np
import pytest

from repro.core.action import ActionCodec
from repro.core.config import PETConfig
from repro.core.reward import RewardComputer
from repro.core.state import HistoryWindow, StateBuilder, TelemetryColumns
from repro.netsim.ecn import ECNConfig
from repro.netsim.network import QueueStats


def mk_stats(qlen=10_000, tx_bytes=100_000, marked=10_000, interval=1e-3,
             capacity=10e9, ecn=ECNConfig(5_000, 200_000, 0.01),
             avg_qlen=None):
    return QueueStats(switch="leaf0", interval=interval, qlen_bytes=qlen,
                      max_port_qlen_bytes=qlen,
                      avg_qlen_bytes=avg_qlen if avg_qlen is not None else qlen,
                      tx_bytes=tx_bytes, tx_marked_bytes=marked,
                      dropped_pkts=0, capacity_bps=capacity, ecn=ecn)


#: column of each feature in a state row (Eq. 2's order)
QLEN, TX, TXM, ECN, INCAST, RATIO = range(6)


def build(cfg, stats, incast_degree, flow_ratio):
    """One record's six normalized features, through the fleet form."""
    return StateBuilder(cfg).build_fleet(
        TelemetryColumns([stats]), np.array([incast_degree]),
        np.array([flow_ratio]))[0]


def reward(cfg, stats):
    return float(RewardComputer(cfg).compute_fleet(
        TelemetryColumns([stats]))[0])


def latency(stats, **cfg):
    """Eq. 8's La alone: the reward with all the weight on latency."""
    return reward(PETConfig(beta1=0.0, beta2=1.0, **cfg), stats)


class TestPETConfig:
    def test_paper_defaults(self):
        cfg = PETConfig()
        assert cfg.alpha_kb == 20.0
        assert cfg.n_range == (0, 9)
        assert cfg.actor_lr == pytest.approx(4e-4)
        assert cfg.critic_lr == pytest.approx(1e-3)
        assert cfg.clip_eps == 0.2
        assert cfg.decay_rate == 0.99
        assert cfg.decay_step == 50

    def test_workload_presets(self):
        ws = PETConfig.for_websearch()
        dm = PETConfig.for_datamining()
        assert (ws.beta1, ws.beta2) == (0.3, 0.7)
        assert (dm.beta1, dm.beta2) == (0.7, 0.3)

    def test_beta_sum_enforced(self):
        with pytest.raises(ValueError):
            PETConfig(beta1=0.5, beta2=0.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            PETConfig(alpha_kb=-1)
        with pytest.raises(ValueError):
            PETConfig(n_range=(5, 5))
        with pytest.raises(ValueError):
            PETConfig(history_k=0)
        with pytest.raises(ValueError):
            PETConfig(action_mode="bogus")


class TestActionCodec:
    def test_threshold_formula_eq5(self):
        # E(n) = alpha * 2^n KB
        assert ActionCodec.threshold_bytes(20, 0) == 20_000
        assert ActionCodec.threshold_bytes(20, 3) == 160_000
        assert ActionCodec.threshold_bytes(20, 9) == 10_240_000

    def test_full_space_size(self):
        codec = ActionCodec.full(alpha_kb=20, n_range=(0, 9), pmax_step=0.05)
        assert codec.n_actions == 45 * 20   # C(10,2) pairs x 20 pmax levels

    def test_full_space_kmin_below_kmax(self):
        codec = ActionCodec.full(n_range=(0, 4))
        for a in codec.all_actions():
            assert a.kmin_bytes < a.kmax_bytes

    def test_compact_space(self):
        codec = ActionCodec.compact(n_range=(0, 9))
        assert codec.n_actions == 10 * 4
        for a in codec.all_actions():
            assert a.kmin_bytes <= a.kmax_bytes

    def test_decode_bounds(self):
        codec = ActionCodec.compact()
        with pytest.raises(IndexError):
            codec.decode(codec.n_actions)
        with pytest.raises(IndexError):
            codec.decode(-1)

    def test_from_config_modes(self):
        assert ActionCodec.from_config(PETConfig(action_mode="compact")) \
            .n_actions == 40
        assert ActionCodec.from_config(PETConfig(action_mode="full")) \
            .n_actions == 900

    def test_nearest_action_roundtrip(self):
        codec = ActionCodec.compact()
        for i in (0, 7, codec.n_actions - 1):
            cfg = codec.decode(i)
            assert codec.nearest_action(cfg) == i

    def test_normalized_kmax_monotone(self):
        codec = ActionCodec.compact()
        vals = [codec.normalized_kmax(i) for i in range(codec.n_actions)]
        assert min(vals) == 0.0 and max(vals) == 1.0


class TestStateBuilder:
    def test_six_features_eq2(self):
        f = build(PETConfig(), mk_stats(), incast_degree=4, flow_ratio=0.8)
        assert f.shape == (6,)
        assert np.all((f >= 0) & (f <= 1))

    def test_normalization_values(self):
        cfg = PETConfig(qlen_norm_bytes=100_000, incast_norm=10)
        st = mk_stats(qlen=50_000, tx_bytes=1_250_000, marked=625_000,
                      interval=1e-3, capacity=10e9,
                      ecn=ECNConfig(5_000, 50_000, 0.1))
        f = build(cfg, st, incast_degree=5, flow_ratio=0.6)
        assert f[QLEN] == pytest.approx(0.5)
        assert f[TX] == pytest.approx(1.0)    # 1.25MB/1ms = 10 Gbps
        assert f[TXM] == pytest.approx(0.5)
        assert f[ECN] == pytest.approx(0.5)
        assert f[INCAST] == pytest.approx(0.5)
        assert f[RATIO] == pytest.approx(0.6)

    def test_clamping(self):
        f = build(PETConfig(qlen_norm_bytes=1_000, incast_norm=2),
                  mk_stats(qlen=99_999_999), incast_degree=50, flow_ratio=2.0)
        assert f[QLEN] == 1.0
        assert f[INCAST] == 1.0
        assert f[RATIO] == 1.0

    def test_ablation_masks(self):
        f = build(PETConfig(use_incast=False, use_flow_ratio=False),
                  mk_stats(), incast_degree=9, flow_ratio=0.9)
        assert f[INCAST] == 0.0
        assert f[RATIO] == 0.0

    def test_missing_ecn_tolerated(self):
        f = build(PETConfig(), mk_stats(ecn=None), incast_degree=0,
                  flow_ratio=0.5)
        assert f[ECN] == 0.0


class TestHistoryWindow:
    def test_obs_dim(self):
        w = HistoryWindow(k=4)
        assert w.obs_dim == 24

    def test_zero_padding_when_young(self):
        w = HistoryWindow(k=3)
        w.push(np.ones(6))
        obs = w.observation()[0]
        np.testing.assert_allclose(obs[:12], 0.0)
        np.testing.assert_allclose(obs[12:], 1.0)

    def test_oldest_first_ordering(self):
        w = HistoryWindow(k=2)
        w.push(np.full(6, 0.1))
        w.push(np.full(6, 0.2))
        obs = w.observation()[0]
        np.testing.assert_allclose(obs[:6], 0.1)
        np.testing.assert_allclose(obs[6:], 0.2)

    def test_rolls_beyond_k(self):
        w = HistoryWindow(k=2)
        for v in (0.1, 0.2, 0.3):
            w.push(np.full(6, v))
        obs = w.observation()[0]
        np.testing.assert_allclose(obs[:6], 0.2)
        np.testing.assert_allclose(obs[6:], 0.3)

    def test_push_accepts_features(self):
        """One feature vector goes to every row; a matrix, a row each."""
        w = HistoryWindow(k=1, rows=2)
        w.push(np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]))
        np.testing.assert_allclose(w.observation(),
                                   [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]] * 2)
        w.push(np.arange(12.0).reshape(2, 6))
        np.testing.assert_allclose(w.observation(),
                                   np.arange(12.0).reshape(2, 6))

    def test_shape_validation(self):
        w = HistoryWindow(k=2)
        with pytest.raises(ValueError):
            w.push(np.ones(5))
        with pytest.raises(ValueError):
            HistoryWindow(k=0)

    def test_clear(self):
        w = HistoryWindow(k=2)
        w.push(np.ones(6))
        w.clear()
        assert len(w) == 0
        np.testing.assert_allclose(w.observation(), 0.0)


class TestReward:
    def test_eq6_weighting(self):
        st = mk_stats(tx_bytes=625_000, interval=1e-3, capacity=10e9,
                      avg_qlen=0.0)
        # T = 0.5, La = 1 (empty queue)
        assert reward(PETConfig(beta1=0.3, beta2=0.7), st) == \
            pytest.approx(0.3 * 0.5 + 0.7 * 1.0)

    def test_latency_term_monotone_decreasing_in_qlen(self):
        vals = [latency(mk_stats(avg_qlen=q)) for q in (0, 1e4, 1e5, 1e6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_latency_term_bounded(self):
        assert latency(mk_stats(avg_qlen=0.0)) == pytest.approx(1.0)
        assert latency(mk_stats(avg_qlen=1e12)) > 0.0

    def test_latency_halves_at_reference(self):
        assert latency(mk_stats(avg_qlen=50_000),
                       reward_qlen_ref_bytes=50_000) == pytest.approx(0.5)

    def test_raw_reciprocal_mode(self):
        # literal Eq. 8 scaled by one MTU: 1000/qlen
        assert latency(mk_stats(avg_qlen=10_000),
                       raw_reciprocal_reward=True) == pytest.approx(0.1)
        # floor prevents division blow-up
        assert latency(mk_stats(avg_qlen=0.0),
                       raw_reciprocal_reward=True) == pytest.approx(1.0)

    def test_reward_in_unit_interval_for_bounded_mode(self):
        for q in (0, 1e5, 1e7):
            r = reward(PETConfig(), mk_stats(avg_qlen=q))
            assert 0.0 <= r <= 1.0
