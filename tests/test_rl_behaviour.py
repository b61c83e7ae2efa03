"""Behavioural tests on the learners: effects of key hyperparameters,
on a lone agent (a trainer of one id)."""

import numpy as np
import pytest

from repro.rl.ippo import IPPOTrainer
from repro.rl.ppo import PPOConfig


def _agent(**kw):
    return IPPOTrainer(["a"], PPOConfig(**kw))


def _act(agent, obs):
    return agent.act({"a": obs})["a"]


def _record(agent, obs, action, reward, log_prob, value):
    agent.learner.record(0, obs, action, reward, True, log_prob, value)


def _probs(agent, obs):
    return agent.learner.probs([0], obs)[0]


def _train_bandit(agent, rng, iters=40, batch=64, n_obs=3):
    """Contextual bandit: reward 1 iff action == argmax(obs)."""
    for _ in range(iters):
        for _ in range(batch):
            obs = rng.normal(size=n_obs)
            d = _act(agent, obs)
            r = 1.0 if d["action"] == int(np.argmax(obs)) else 0.0
            _record(agent, obs, d["action"], r, d["log_prob"], d["value"])
        agent.update()


def _entropy(probs):
    return -(probs * np.log(np.clip(probs, 1e-12, None))).sum(axis=-1)


class TestEntropyCoefficient:
    def test_high_entropy_keeps_policy_flatter(self):
        rng = np.random.default_rng(0)
        sharp = _agent(obs_dim=3, n_actions=3, hidden=(16, 16), seed=1,
                       actor_lr=5e-3, critic_lr=5e-3, entropy_coef=0.0)
        flat = _agent(obs_dim=3, n_actions=3, hidden=(16, 16), seed=1,
                      actor_lr=5e-3, critic_lr=5e-3, entropy_coef=0.5)
        _train_bandit(sharp, np.random.default_rng(2))
        _train_bandit(flat, np.random.default_rng(2))
        obs = rng.normal(size=(20, 3))
        h_sharp = float(_entropy(_probs(sharp, obs)).mean())
        h_flat = float(_entropy(_probs(flat, obs)).mean())
        assert h_flat > h_sharp


class TestClipping:
    def test_clip_fraction_reported_and_bounded(self):
        agent = _agent(obs_dim=2, n_actions=3, hidden=(8, 8), seed=0,
                       epochs=8, actor_lr=1e-2)
        rng = np.random.default_rng(1)
        for _ in range(64):
            obs = rng.normal(size=2)
            d = _act(agent, obs)
            _record(agent, obs, d["action"], rng.normal(), d["log_prob"],
                    d["value"])
        stats = agent.update()["a"]
        assert 0.0 <= stats["clip_frac"] <= 1.0
        # with many epochs at a high lr the policy moves enough to clip
        assert np.isfinite(stats["approx_kl"])

    def test_tighter_clip_slows_policy_drift(self):
        def drift(clip):
            # identical transitions: advantage normalization would zero
            # them out, so use raw advantages for this probe
            agent = _agent(obs_dim=2, n_actions=3, hidden=(8, 8), seed=3,
                           epochs=10, actor_lr=1e-2, clip_eps=clip,
                           entropy_coef=0.0, normalize_advantages=False)
            obs = np.ones(2)
            p_before = _probs(agent, obs)[0]
            logp = float(np.log(p_before[0]))
            for _ in range(32):
                _record(agent, obs, 0, 1.0, logp, 0.0)
            agent.update()
            p_after = _probs(agent, obs)[0]
            return abs(p_after[0] - p_before[0])

        assert drift(0.05) < drift(0.5)


class TestValueFunction:
    def test_gamma_zero_learns_immediate_reward(self):
        agent = _agent(obs_dim=2, n_actions=2, hidden=(16, 16), seed=4,
                       gamma=0.0, critic_lr=1e-2)
        rng = np.random.default_rng(5)
        # reward equals obs[0]; critic should regress onto it
        for _ in range(50):
            for _ in range(32):
                obs = rng.uniform(-1, 1, size=2)
                d = _act(agent, obs)
                _record(agent, obs, d["action"], float(obs[0]),
                        d["log_prob"], d["value"])
            agent.update()
        for x in (-0.8, 0.0, 0.8):
            v = agent.values({"a": np.array([x, 0.0])})["a"]
            assert v == pytest.approx(x, abs=0.25)


class TestDeterminism:
    def test_same_seed_same_training_trajectory(self):
        def run():
            agent = _agent(obs_dim=2, n_actions=3, hidden=(8, 8), seed=7)
            rng = np.random.default_rng(8)
            _train_bandit(agent, rng, iters=5, batch=16, n_obs=2)
            return _probs(agent, np.ones(2))[0]

        np.testing.assert_allclose(run(), run())
