"""Tests for the PPO learner (paper Eq. 11-12)."""

import numpy as np
import pytest

from repro.rl.ppo import PPOAgent, PPOConfig, RolloutBuffer, approx_kl_k3


def _agent(**overrides):
    cfg = PPOConfig(obs_dim=3, n_actions=4, hidden=(16, 16), seed=0,
                    **overrides)
    return PPOAgent(cfg)


class TestRolloutBuffer:
    def test_add_and_len(self):
        buf = RolloutBuffer()
        buf.add(np.zeros(3), 1, 0.5, False, -0.2, 0.1)
        assert len(buf) == 1
        buf.clear()
        assert len(buf) == 0

    def test_flattens_obs(self):
        buf = RolloutBuffer()
        buf.add(np.zeros((1, 3)), 0, 0.0, False, 0.0, 0.0)
        assert buf.obs[0].shape == (3,)


class TestPPOAgent:
    def test_act_returns_decision(self):
        agent = _agent()
        d = agent.act(np.zeros(3))
        assert set(d) == {"action", "log_prob", "value"}
        assert 0 <= d["action"] < 4

    def test_update_on_empty_buffer_is_noop(self):
        agent = _agent()
        stats = agent.update()
        assert stats["policy_loss"] == 0.0
        assert agent.updates == 0

    def test_update_clears_buffer_and_counts(self):
        agent = _agent()
        for _ in range(8):
            d = agent.act(np.zeros(3))
            agent.record(np.zeros(3), d["action"], 1.0, False,
                         d["log_prob"], d["value"])
        stats = agent.update(last_obs=np.zeros(3))
        assert len(agent.buffer) == 0
        assert agent.updates == 1
        assert np.isfinite(stats["policy_loss"])
        assert np.isfinite(stats["value_loss"])

    def test_learns_contextual_bandit(self):
        """Reward 1 iff action == argmax(obs); PPO should find it."""
        rng = np.random.default_rng(0)
        agent = _agent(actor_lr=5e-3, critic_lr=5e-3, epochs=6)
        for it in range(60):
            for _ in range(64):
                obs = rng.normal(size=3)
                d = agent.act(obs)
                reward = 1.0 if d["action"] == int(np.argmax(obs)) else 0.0
                agent.record(obs, d["action"], reward, True,
                             d["log_prob"], d["value"])
            agent.update()
        hits = 0
        for _ in range(200):
            obs = rng.normal(size=3)
            d = agent.act(obs, greedy=True)
            hits += d["action"] == int(np.argmax(obs))
        assert hits / 200 > 0.8

    def test_value_regression(self):
        """Critic converges to constant return on a fixed-reward problem."""
        agent = _agent(critic_lr=1e-2, gamma=0.0)
        obs = np.ones(3)
        for _ in range(40):
            for _ in range(32):
                d = agent.act(obs)
                agent.record(obs, d["action"], 2.0, True,
                             d["log_prob"], d["value"])
            agent.update()
        assert agent.value(obs) == pytest.approx(2.0, abs=0.3)

    def test_checkpoint_roundtrip(self):
        a = _agent()
        b = PPOAgent(PPOConfig(obs_dim=3, n_actions=4, hidden=(16, 16), seed=9))
        obs = np.ones(3)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.policy.probs(obs), b.policy.probs(obs))
        assert a.value(obs) == pytest.approx(b.value(obs))

    def test_greedy_act_deterministic(self):
        agent = _agent()
        actions = {agent.act(np.ones(3), greedy=True)["action"]
                   for _ in range(10)}
        assert len(actions) == 1

    def test_update_reports_nonnegative_kl(self):
        rng = np.random.default_rng(1)
        agent = _agent(epochs=4, actor_lr=1e-2)
        for _ in range(32):
            o = rng.normal(size=3)
            d = agent.act(o)
            agent.record(o, d["action"], rng.normal(), False,
                         d["log_prob"], d["value"])
        stats = agent.update(last_obs=np.zeros(3))
        assert stats["approx_kl"] >= 0.0

    def test_policy_moves_toward_advantaged_action(self):
        """A single update with positive advantage on one action should
        raise that action's probability (the Eq. 11 ascent direction)."""
        agent = _agent(epochs=1, normalize_advantages=False,
                       entropy_coef=0.0)
        obs = np.zeros(3)
        p_before = agent.policy.probs(obs)[0].copy()
        target = 2
        logp = float(np.log(p_before[target]))
        # many identical transitions, all rewarding action `target`
        for _ in range(32):
            agent.record(obs, target, 1.0, True, logp, 0.0)
        agent.update()
        p_after = agent.policy.probs(obs)[0]
        assert p_after[target] > p_before[target]


class TestKLEstimator:
    """The k3 estimator replacing the signed k1 ``mean(old - new)``."""

    def test_identical_policies_give_zero(self):
        lp = np.log(np.full(4, 0.25))
        assert approx_kl_k3(lp, lp) == pytest.approx(0.0)

    def test_nonnegative_where_k1_goes_negative(self):
        # samples whose likelihood rose under the new policy: k1 < 0
        old = np.log(np.array([0.5, 0.4, 0.3]))
        new = np.log(np.array([0.7, 0.6, 0.5]))
        k1 = float(np.mean(old - new))
        assert k1 < 0
        assert approx_kl_k3(old, new) >= 0.0

    def test_termwise_nonnegative(self):
        rng = np.random.default_rng(0)
        old = np.log(rng.uniform(0.05, 0.95, size=100))
        new = np.log(rng.uniform(0.05, 0.95, size=100))
        log_ratio = new - old
        terms = (np.exp(log_ratio) - 1.0) - log_ratio
        assert np.all(terms >= 0.0)       # (x-1) - log(x) >= 0 for x > 0
        assert approx_kl_k3(old, new) == pytest.approx(terms.mean())

    def test_matches_exact_kl_under_proportional_sampling(self):
        """With action counts exactly proportional to p, the sample mean
        of the k3 terms equals KL(p||q) exactly: E_p[r-1] = 0 and
        E_p[-log r] = KL for r = q/p."""
        p = np.array([0.5, 0.25, 0.25])
        q = np.array([0.25, 0.5, 0.25])
        actions = np.array([0, 0, 1, 2])          # proportions == p
        old = np.log(p[actions])
        new = np.log(q[actions])
        exact = float(np.sum(p * np.log(p / q)))
        assert approx_kl_k3(old, new) == pytest.approx(exact)


class TestTruncationBootstrap:
    """Regression for the headline bugfix: an episode ending on a time
    limit must bootstrap V(s_T) into GAE instead of zeroing it."""

    @staticmethod
    def _capture_gae_args(monkeypatch):
        import repro.rl.ppo as ppo_mod
        captured = {}
        real = ppo_mod.compute_gae

        def spy(rewards, values, dones, last_value, gamma, lam, **kw):
            captured["dones"] = np.asarray(dones).copy()
            captured["last_value"] = float(last_value)
            captured["truncateds"] = np.asarray(kw["truncateds"]).copy()
            captured["bootstrap_values"] = np.asarray(
                kw["bootstrap_values"]).copy()
            return real(rewards, values, dones, last_value, gamma, lam, **kw)

        monkeypatch.setattr(ppo_mod, "compute_gae", spy)
        return captured

    def _fill(self, agent, obs, n, *, final_done, final_truncated):
        for i in range(n):
            d = agent.act(obs)
            last = i == n - 1
            agent.record(obs, d["action"], 1.0, final_done and last,
                         d["log_prob"], d["value"],
                         truncated=final_truncated and last)

    def test_truncated_episode_end_bootstraps_last_value(self, monkeypatch):
        captured = self._capture_gae_args(monkeypatch)
        agent = _agent()
        obs = np.ones(3)
        expected_v = agent.value(obs)          # critic pre-update
        self._fill(agent, obs, 8, final_done=False, final_truncated=True)
        agent.update(last_obs=obs)
        assert captured["dones"][-1]           # truncation still ends episode
        assert captured["truncateds"][-1]
        assert captured["last_value"] == pytest.approx(expected_v)
        # the final step's delta bootstraps V(s_T), not zero
        assert captured["bootstrap_values"][-1] == pytest.approx(expected_v)

    def test_terminated_episode_end_does_not_bootstrap(self, monkeypatch):
        captured = self._capture_gae_args(monkeypatch)
        agent = _agent()
        obs = np.ones(3)
        self._fill(agent, obs, 8, final_done=True, final_truncated=False)
        agent.update(last_obs=obs)
        assert captured["dones"][-1]
        assert not captured["truncateds"][-1]
        assert captured["last_value"] == 0.0
        assert captured["bootstrap_values"][-1] == 0.0

    def test_mid_buffer_truncation_carries_explicit_bootstrap(self, monkeypatch):
        captured = self._capture_gae_args(monkeypatch)
        agent = _agent()
        obs = np.ones(3)
        d = agent.act(obs)
        agent.record(obs, d["action"], 1.0, False, d["log_prob"], d["value"],
                     truncated=True, bootstrap_value=3.5)
        self._fill(agent, obs, 3, final_done=True, final_truncated=False)
        agent.update()
        assert captured["truncateds"][0]
        assert captured["bootstrap_values"][0] == pytest.approx(3.5)

    def test_buffer_records_truncation_as_done(self):
        buf = RolloutBuffer()
        buf.add(np.zeros(3), 0, 1.0, False, 0.0, 0.0, truncated=True)
        assert buf.dones == [True]
        assert buf.truncateds == [True]
        buf.clear()
        assert buf.truncateds == [] and buf.bootstraps == []


class TestEpochGather:
    def test_minibatches_are_slices_of_the_epoch_shuffle(self, monkeypatch):
        """``update()`` gathers each array once per epoch; what
        ``_update_minibatch`` receives must still be ``x[idx[start:end]]``
        of that epoch's shuffle, ragged tail included."""
        import copy

        import repro.rl.ppo as ppo_mod

        agent = _agent(minibatch_size=8, epochs=3,
                       normalize_advantages=False)
        rng = np.random.default_rng(4)
        n = 21
        for t in range(n):
            obs = rng.normal(size=3)
            d = agent.act(obs)
            agent.record(obs, d["action"], float(rng.normal()),
                         t % 9 == 8, d["log_prob"], d["value"])
        buf = agent.buffer
        obs, actions = np.stack(buf.obs), np.asarray(buf.actions)
        old_logp = np.asarray(buf.log_probs)

        gae_out = []
        real_gae = ppo_mod.compute_gae

        def spy_gae(*args, **kw):
            gae_out.append(real_gae(*args, **kw))
            return gae_out[-1]

        received = []
        real_minibatch = agent._update_minibatch

        def spy_minibatch(*arrays):
            received.append([a.copy() for a in arrays])
            return real_minibatch(*arrays)

        monkeypatch.setattr(ppo_mod, "compute_gae", spy_gae)
        monkeypatch.setattr(agent, "_update_minibatch", spy_minibatch)
        shuffler = copy.deepcopy(agent.rng)
        agent.update(last_obs=np.zeros(3))

        (adv, returns), = gae_out
        idx = np.arange(n)
        expected = []
        for _ in range(3):
            shuffler.shuffle(idx)
            for start in range(0, n, 8):
                mb = idx[start:start + 8]
                expected.append([obs[mb], actions[mb], old_logp[mb],
                                 adv[mb], returns[mb]])
        assert [len(e[0]) for e in expected] == [8, 8, 5] * 3
        assert len(received) == len(expected)
        for got, want in zip(received, expected):
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()
