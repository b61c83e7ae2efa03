"""Tests for IPPO orchestration, replay buffers, and Double DQN."""

from collections import deque

import numpy as np
import pytest

from repro.rl.ddqn import DDQNAgent, DDQNConfig
from repro.rl.ippo import IPPOTrainer
from repro.rl.ppo import PPOConfig
from repro.rl.replay import GlobalReplayBuffer, ReplayBuffer, Transition


class TestIPPOTrainer:
    def _trainer(self, ids=("a", "b"), seed=0):
        cfg = PPOConfig(obs_dim=2, n_actions=3, hidden=(8, 8), seed=seed)
        return IPPOTrainer(ids, cfg)

    def test_agents_are_independent_parameterizations(self):
        tr = self._trainer()
        pa = tr.agents["a"].actor.state_dict()
        pb = tr.agents["b"].actor.state_dict()
        assert any(not np.allclose(pa[k], pb[k]) for k in pa)

    def test_act_and_record_per_agent(self):
        tr = self._trainer()
        obs = {"a": np.zeros(2), "b": np.ones(2)}
        decisions = tr.act(obs)
        assert set(decisions) == {"a", "b"}
        tr.record(obs, decisions, {"a": 1.0, "b": 0.0},
                  {"a": False, "b": False})
        assert len(tr.agents["a"].buffer) == 1
        assert len(tr.agents["b"].buffer) == 1

    def test_update_returns_per_agent_stats(self):
        tr = self._trainer()
        obs = {"a": np.zeros(2), "b": np.ones(2)}
        for _ in range(6):
            d = tr.act(obs)
            tr.record(obs, d, {"a": 1.0, "b": 0.5}, {"a": False, "b": False})
        stats = tr.update(obs)
        assert set(stats) == {"a", "b"}
        assert len(tr.agents["a"].buffer) == 0

    def test_no_experience_crosses_agents(self):
        """Agent b's buffer must not grow when only a records."""
        tr = self._trainer()
        tr.agents["a"].record(np.zeros(2), 0, 1.0, False, 0.0, 0.0)
        assert len(tr.agents["b"].buffer) == 0

    def test_broadcast_parameters(self):
        tr = self._trainer()
        src = tr.agents["a"].state_dict()
        tr.broadcast_parameters(src)
        pb = tr.agents["b"].actor.state_dict()
        for k, v in src["actor"].items():
            np.testing.assert_allclose(pb[k], v)

    def test_duplicate_or_empty_ids_rejected(self):
        cfg = PPOConfig(obs_dim=2, n_actions=2)
        with pytest.raises(ValueError):
            IPPOTrainer([], cfg)
        with pytest.raises(ValueError):
            IPPOTrainer(["x", "x"], cfg)


class TestReplayBuffer:
    def _t(self, i=0):
        return Transition(np.array([float(i)]), i % 3, float(i),
                          np.array([float(i + 1)]), False)

    def test_capacity_ring(self):
        buf = ReplayBuffer(3)
        for i in range(5):
            buf.push(self._t(i))
        assert len(buf) == 3

    def test_sample_shapes(self):
        buf = ReplayBuffer(10, rng=np.random.default_rng(0))
        for i in range(4):
            buf.push(self._t(i))
        obs, actions, rewards, next_obs, dones = buf.sample(8)
        assert obs.shape == (8, 1)
        assert actions.dtype == np.int64
        assert dones.dtype == bool

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            ReplayBuffer(4).sample(1)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)

    @pytest.mark.parametrize("pushes", [1, 5, 7, 8, 23])
    def test_columns_sample_what_a_deque_of_transitions_samples(self, pushes):
        """The ring columns against the ``deque(maxlen=capacity)`` of
        transitions they replaced, over the same ``rng.integers`` draws:
        the same rows, bit for bit, oldest transition first, before and
        after the ring wraps; and the same ``nbytes``."""
        rng = np.random.default_rng(3)
        buf = ReplayBuffer(7, rng=np.random.default_rng(11))
        ref, ref_rng = deque(maxlen=7), np.random.default_rng(11)
        for _ in range(pushes):
            t = Transition(rng.standard_normal(4), int(rng.integers(9)),
                           float(rng.standard_normal()),
                           rng.standard_normal(4), bool(rng.integers(2)))
            buf.push(t)
            ref.append(t)
            assert len(buf) == len(ref)
            assert buf.nbytes() == sum(r.nbytes() for r in ref)
            batch = [ref[i] for i in ref_rng.integers(len(ref), size=6)]
            want = (np.stack([r.obs for r in batch]),
                    np.array([r.action for r in batch], dtype=np.int64),
                    np.array([r.reward for r in batch]),
                    np.stack([r.next_obs for r in batch]),
                    np.array([r.done for r in batch], dtype=bool))
            for got, expect in zip(buf.sample(6), want):
                assert got.dtype == expect.dtype
                assert got.tobytes() == expect.tobytes()


class TestGlobalReplayBuffer:
    def test_exchange_accounting(self):
        """Each push is broadcast to the (n-1) peers — ACC's overhead."""
        g = GlobalReplayBuffer(100, ["s1", "s2", "s3"],
                               rng=np.random.default_rng(0))
        t = Transition(np.zeros(4), 0, 1.0, np.zeros(4), False)
        g.push("s1", t)
        assert g.bytes_exchanged["s1"] == t.nbytes() * 2
        assert g.bytes_exchanged["s2"] == 0
        assert g.total_bytes_exchanged() == t.nbytes() * 2
        assert g.pushes["s1"] == 1

    def test_shared_pool_visible_to_all(self):
        g = GlobalReplayBuffer(100, ["s1", "s2"],
                               rng=np.random.default_rng(0))
        g.add("s1", np.zeros(2), 1, 0.5, np.ones(2), False)
        obs, actions, *_ = g.sample(4)
        assert np.all(actions == 1)

    def test_unknown_agent_rejected(self):
        g = GlobalReplayBuffer(10, ["s1"])
        with pytest.raises(KeyError):
            g.add("zz", np.zeros(1), 0, 0.0, np.zeros(1), False)


class TestDDQN:
    def test_epsilon_decays_linearly(self):
        agent = DDQNAgent(DDQNConfig(obs_dim=2, n_actions=3, seed=0,
                                     eps_start=1.0, eps_end=0.0,
                                     eps_decay_steps=100))
        assert agent.epsilon() == pytest.approx(1.0)
        for _ in range(50):
            agent.act(np.zeros(2))
        assert agent.epsilon() == pytest.approx(0.5, abs=0.02)
        for _ in range(100):
            agent.act(np.zeros(2))
        assert agent.epsilon() == pytest.approx(0.0)

    def test_train_noop_until_warm(self):
        agent = DDQNAgent(DDQNConfig(obs_dim=2, n_actions=2, batch_size=16,
                                     seed=0))
        stats = agent.train_step()
        assert stats["trained"] == 0.0

    def test_target_network_syncs(self):
        cfg = DDQNConfig(obs_dim=2, n_actions=2, batch_size=4,
                         target_sync_interval=2, seed=0)
        agent = DDQNAgent(cfg)
        for i in range(20):
            agent.replay.add(np.ones(2) * i, i % 2, 1.0, np.ones(2), False)
        agent.train_step()
        diverged = any(
            not np.allclose(agent.q.state_dict()[k], agent.q_target.state_dict()[k])
            for k in agent.q.state_dict())
        assert diverged
        agent.train_step()   # second step triggers the hard sync
        for k, v in agent.q.state_dict().items():
            np.testing.assert_allclose(agent.q_target.state_dict()[k], v)

    def test_learns_bandit(self):
        """Constant state, action 1 pays 1, action 0 pays 0."""
        cfg = DDQNConfig(obs_dim=2, n_actions=2, batch_size=32, lr=5e-3,
                         gamma=0.0, eps_decay_steps=200, seed=1)
        agent = DDQNAgent(cfg)
        rng = np.random.default_rng(2)
        obs = np.ones(2)
        for _ in range(400):
            a = agent.act(obs)
            r = 1.0 if a == 1 else 0.0
            agent.replay.add(obs, a, r, obs, True)
            agent.train_step()
        assert agent.act(obs, greedy=True) == 1
        q = agent.q_values(obs)
        assert q[1] == pytest.approx(1.0, abs=0.2)

    def test_checkpoint_roundtrip(self):
        a = DDQNAgent(DDQNConfig(obs_dim=2, n_actions=3, seed=0))
        b = DDQNAgent(DDQNConfig(obs_dim=2, n_actions=3, seed=5))
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.q_values(np.ones(2)),
                                   b.q_values(np.ones(2)))
