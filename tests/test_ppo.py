"""Tests for the PPO learner (paper Eq. 11-12)."""

import numpy as np
import pytest

from repro.rl.ppo import PPOAgent, PPOConfig, approx_kl_k3


def _agent(**overrides):
    cfg = PPOConfig(obs_dim=3, n_actions=4, hidden=(16, 16), seed=0,
                    **overrides)
    return PPOAgent(cfg)


class TestRolloutBuffer:
    """An agent's buffer is a row view of its learner's rollout arrays."""

    def test_add_and_len(self):
        buf = _agent().buffer
        buf.add(np.zeros(3), 1, 0.5, False, -0.2, 0.1)
        assert len(buf) == 1
        assert buf.actions.tolist() == [1] and buf.rewards.tolist() == [0.5]
        buf.clear()
        assert len(buf) == 0

    def test_flattens_obs(self):
        buf = _agent().buffer
        buf.add(np.zeros((1, 3)), 0, 0.0, False, 0.0, 0.0)
        assert buf.obs[0].shape == (3,)

    def test_grows_past_its_capacity_keeping_every_row(self):
        agent = _agent()
        for t in range(150):
            agent.record(np.full(3, t), t % 4, float(t), False, 0.0, 0.0)
        assert agent.learner.cap >= 150
        assert agent.buffer.obs[:, 0].tolist() == list(range(150))
        assert agent.buffer.rewards.tolist() == [float(t) for t in range(150)]


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
        """The learner's (one-agent) GAE call, row 0 of its arrays."""
        import repro.rl.stacked as stacked_mod
        captured = {}
        real = stacked_mod.compute_gae

        def spy(rewards, values, dones, last_value, gamma, lam, **kw):
            captured["dones"] = np.asarray(dones)[0].copy()
            captured["last_value"] = float(np.asarray(last_value)[0])
            captured["truncateds"] = np.asarray(kw["truncateds"])[0].copy()
            captured["bootstrap_values"] = np.asarray(
                kw["bootstrap_values"])[0].copy()
            return real(rewards, values, dones, last_value, gamma, lam, **kw)

        monkeypatch.setattr(stacked_mod, "compute_gae", spy)
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
        buf = _agent().buffer
        buf.add(np.zeros(3), 0, 1.0, False, 0.0, 0.0, truncated=True)
        assert buf.dones.tolist() == [True]
        assert buf.truncateds.tolist() == [True]
        buf.clear()
        assert len(buf.truncateds) == 0 and len(buf.bootstraps) == 0


class TestEpochGather:
    def test_minibatches_are_slices_of_the_epoch_shuffle(self, monkeypatch):
        """``update()`` gathers each array once per epoch; what each
        minibatch step receives must still be ``x[idx[start:end]]`` of
        that epoch's shuffle, ragged tail included."""
        import copy

        import repro.rl.stacked as stacked_mod

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
        obs, actions = buf.obs.copy(), buf.actions.copy()
        old_logp = buf.log_probs.copy()

        gae_out = []
        real_gae = stacked_mod.compute_gae

        def spy_gae(*args, **kw):
            gae_out.append(real_gae(*args, **kw))
            return gae_out[-1]

        received = []
        learner = agent.learner
        real_minibatch = learner._minibatch

        def spy_minibatch(nets, steps, *arrays):
            received.append([a[0].copy() for a in arrays])
            return real_minibatch(nets, steps, *arrays)

        monkeypatch.setattr(stacked_mod, "compute_gae", spy_gae)
        monkeypatch.setattr(learner, "_minibatch", spy_minibatch)
        shuffler = copy.deepcopy(agent.rng)
        agent.update(last_obs=np.zeros(3))

        (adv, returns), = gae_out
        adv, returns = adv[0], returns[0]
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


# ------------------------------------------------------------ the oracle
def _gae_loop(rewards, values, dones, truncateds, bootstraps, last_value,
              gamma, lam):
    """Eq. 9-10 one step at a time, in Python floats."""
    T = len(rewards)
    adv = np.zeros(T)
    gae = 0.0
    for t in range(T - 1, -1, -1):
        if dones[t]:
            nv = bootstraps[t] if truncateds[t] else 0.0
        else:
            nv = values[t + 1] if t + 1 < T else last_value
        delta = rewards[t] + gamma * nv - values[t]
        gae = delta if dones[t] else delta + gamma * lam * gae
        adv[t] = gae
    return adv, adv + np.asarray(values)


class _PlainPPO:
    """The plain per-agent 2-D PPO update that the stacked learner
    replaced, kept as its oracle: one agent's own MLPs, its own
    :class:`~repro.rl.optim.Adam` per network, Python-list rollouts and
    a copy of its generator."""

    def __init__(self, agent):
        import copy

        from repro.rl.nn import MLP
        from repro.rl.optim import Adam

        cfg = self.cfg = agent.config
        self.actor = MLP(agent.actor.sizes)
        self.critic = MLP(agent.critic.sizes)
        self.actor.load_state_dict(agent.actor.state_dict())
        self.critic.load_state_dict(agent.critic.state_dict())
        self.actor_opt = Adam(self.actor, cfg.actor_lr)
        self.critic_opt = Adam(self.critic, cfg.critic_lr)
        self.rng = copy.deepcopy(agent.rng)   # _fill refreshes it
        self.rollout = []

    def record(self, obs, action, reward, done, log_prob, value,
               truncated=False, bootstrap=0.0):
        self.rollout.append((np.asarray(obs, dtype=np.float64).ravel(),
                             int(action), float(reward),
                             bool(done) or bool(truncated), float(log_prob),
                             float(value), bool(truncated), float(bootstrap)))

    def update(self, last_obs=None):
        from repro.rl.policy import softmax

        zero = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0,
                "approx_kl": 0.0, "clip_frac": 0.0}
        if not self.rollout:
            return dict(zero)
        cfg = self.cfg
        obs, actions, rewards, dones, old_logp, values, truncs, boots = (
            list(col) for col in zip(*self.rollout))
        obs, actions = np.stack(obs), np.asarray(actions, dtype=np.int64)
        old_logp, values = np.asarray(old_logp), np.asarray(values)
        lv = 0.0
        if last_obs is not None and (not dones[-1] or truncs[-1]):
            lv = float(self.critic.forward(np.atleast_2d(last_obs))[0, 0])
        if truncs[-1] and boots[-1] == 0.0:
            boots[-1] = lv
        adv, returns = _gae_loop(rewards, values, dones, truncs, boots, lv,
                                 cfg.gamma, cfg.gae_lambda)
        if cfg.normalize_advantages and len(adv) > 1:
            adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        n = len(obs)
        idx = np.arange(n)
        stats = dict(zero)
        batches = 0
        for _ in range(cfg.epochs):
            self.rng.shuffle(idx)
            obs_e, act_e = obs[idx], actions[idx]
            logp_e, adv_e, ret_e = old_logp[idx], adv[idx], returns[idx]
            for start in range(0, n, cfg.minibatch_size):
                mb = slice(start, start + cfg.minibatch_size)
                s = self._minibatch(obs_e[mb], act_e[mb], logp_e[mb],
                                    adv_e[mb], ret_e[mb], softmax)
                for k in stats:
                    stats[k] += s[k]
                batches += 1
        self.rollout = []
        return {k: v / batches for k, v in stats.items()}

    def _minibatch(self, obs, actions, old_logp, adv, returns, softmax):
        from repro.rl.nn import clip_gradients

        cfg = self.cfg
        m = len(obs)
        probs = softmax(self.actor.forward(obs))
        logp_all = np.log(np.clip(probs, 1e-12, None))
        new_logp = logp_all[np.arange(m), actions]
        ratio = np.exp(new_logp - old_logp)
        unclipped = ratio * adv
        clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * adv
        policy_loss = -float(np.minimum(unclipped, clipped).mean())
        entropy = -(probs * logp_all).sum(axis=-1)
        use_unclipped = unclipped <= clipped
        coef = np.where(use_unclipped, ratio * adv, 0.0)
        inside = (ratio >= 1.0 - cfg.clip_eps) & (ratio <= 1.0 + cfg.clip_eps)
        coef = np.where(~use_unclipped & inside, ratio * adv, coef)
        grad_logp = -probs.copy()
        grad_logp[np.arange(m), actions] += 1.0
        grad_logits = -(coef[:, None] * grad_logp) / m
        ent = -(probs * logp_all).sum(axis=-1, keepdims=True)
        grad_logits -= cfg.entropy_coef * (-probs * (logp_all + ent)) / m
        self.actor.zero_grad()
        self.actor.backward(grad_logits)
        clip_gradients(self.actor.gradients().values(), cfg.max_grad_norm)
        self.actor_opt.step()

        v = self.critic.forward(obs)[:, 0]
        value_loss = float(np.mean((v - returns) ** 2))
        self.critic.zero_grad()
        self.critic.backward((2.0 * (v - returns) / m)[:, None])
        clip_gradients(self.critic.gradients().values(), cfg.max_grad_norm)
        self.critic_opt.step()

        return {"policy_loss": policy_loss, "value_loss": value_loss,
                "entropy": float(entropy.mean()),
                "approx_kl": approx_kl_k3(old_logp, new_logp),
                "clip_frac": float(np.mean(np.abs(ratio - 1.0)
                                           > cfg.clip_eps))}


def _assert_same_as_oracle(agent, plain):
    """Weights, Adam moments and generator state, byte for byte."""
    learner, row = agent.learner, agent.row
    for net, packed, opt in ((plain.actor, learner.actor, plain.actor_opt),
                             (plain.critic, learner.critic, plain.critic_opt)):
        flat = np.concatenate([p.ravel() for p in net.parameters().values()])
        assert flat.tobytes() == packed.params[row].tobytes()
        assert opt._fm.tobytes() == packed.m[row].tobytes()
        assert opt._fv.tobytes() == packed.v[row].tobytes()
    assert agent.rng.bit_generator.state == plain.rng.bit_generator.state


def _fill(agents, plains, rng, lengths, *, truncate_at=()):
    """Record ``lengths[i]`` transitions for agent ``i`` (and its
    oracle); a step in ``truncate_at`` is a time-limit cut, mid-buffer
    ones carrying an explicit bootstrap value.  Each oracle then takes
    a copy of its agent's generator, which acting has advanced."""
    import copy

    for agent, plain, T in zip(agents, plains, lengths):
        dim = agent.config.obs_dim
        for t in range(T):
            obs = rng.normal(size=dim)
            d = agent.act(obs, epsilon=0.1)
            reward = float(rng.normal())
            done = bool(rng.random() < 0.05)
            trunc = t in truncate_at or (t - T) in truncate_at
            boot = float(rng.normal()) if trunc and t != T - 1 else None
            args = (obs, d["action"], reward, done, d["log_prob"], d["value"])
            agent.record(*args, truncated=trunc, bootstrap_value=boot)
            plain.record(*args, truncated=trunc,
                         bootstrap=0.0 if boot is None else boot)
        plain.rng = copy.deepcopy(agent.rng)


_ORACLE_CFG = dict(obs_dim=24, n_actions=10, hidden=(64, 64), epochs=3,
                   minibatch_size=64, actor_lr=3e-3, critic_lr=5e-3)


#: (agents, update groups) of the oracle comparisons
_SHAPES = [(1, 1), (32, 1), (32, 2)]
_SHAPE_IDS = ["A1", "A32", "A32-2groups"]


class TestStackedLearnerOracle:
    """The stacked learner against the plain 2-D update, at A=1 and at
    A=32 with one and with two update groups."""

    @staticmethod
    def _groups(monkeypatch, n):
        import repro.rl.stacked as stacked_mod
        monkeypatch.setattr(stacked_mod, "usable_cores", lambda: n)

    @staticmethod
    def _trainer(n_agents, **overrides):
        from repro.rl.ippo import IPPOTrainer
        cfg = PPOConfig(seed=11, **{**_ORACLE_CFG, **overrides})
        return IPPOTrainer([f"s{i}" for i in range(n_agents)], cfg)

    def _check(self, trainer, lengths, rng, *, truncate_at=(), rounds=2,
               bootstrap_some=True):
        agents = list(trainer.agents.values())
        plains = [_PlainPPO(a) for a in agents]
        stats_seen = []
        for _ in range(rounds):
            _fill(agents, plains, rng, lengths, truncate_at=truncate_at)
            last = {aid: rng.normal(size=a.config.obs_dim)
                    for i, (aid, a) in enumerate(trainer.agents.items())
                    if not bootstrap_some or i % 3}
            got = trainer.update(last)
            for (aid, agent), plain in zip(trainer.agents.items(), plains):
                want = plain.update(last.get(aid))
                assert got[aid] == want, aid
                _assert_same_as_oracle(agent, plain)
                assert len(agent.buffer) == 0
            stats_seen.append(got)
        return stats_seen

    @pytest.mark.parametrize("agents,groups", _SHAPES, ids=_SHAPE_IDS)
    @pytest.mark.parametrize("clip", ["active", "inactive"])
    def test_full_fleet_with_a_minibatch_tail(self, monkeypatch, agents,
                                              groups, clip):
        """100 transitions per agent: a 64 + 36 minibatch tail; the
        ratio clip and the gradient-norm clip both fire, or neither."""
        self._groups(monkeypatch, groups)
        over = (dict(actor_lr=3e-2, max_grad_norm=0.5) if clip == "active"
                else dict(actor_lr=1e-7, critic_lr=1e-7, max_grad_norm=1e9))
        trainer = self._trainer(agents, **over)
        stats = self._check(trainer, [100] * agents,
                            np.random.default_rng(0))
        clip_frac = [s["clip_frac"] for s in stats[-1].values()]
        assert (max(clip_frac) > 0) == (clip == "active")

    @pytest.mark.parametrize("agents,groups", _SHAPES, ids=_SHAPE_IDS)
    def test_truncation_mid_buffer_and_on_the_final_step(self, monkeypatch,
                                                         agents, groups):
        self._groups(monkeypatch, groups)
        trainer = self._trainer(agents)
        self._check(trainer, [40] * agents, np.random.default_rng(1),
                    truncate_at=(7, -1), bootstrap_some=agents > 1)

    @pytest.mark.parametrize("groups", [1, 2])
    def test_unequal_rollout_lengths_and_empty_buffers(self, monkeypatch,
                                                       groups):
        """Agents group by rollout length (one a copy of scattered rows);
        an empty buffer is a no-op that draws nothing."""
        self._groups(monkeypatch, groups)
        trainer = self._trainer(32)
        lengths = [100 if i % 5 else 0 for i in range(32)]
        lengths[3], lengths[17], lengths[30] = 37, 1, 37
        agents = list(trainer.agents.values())
        states = [a.rng.bit_generator.state for a in agents]
        stats = self._check(trainer, lengths, np.random.default_rng(2),
                            rounds=1)
        for i, agent in enumerate(agents):
            if lengths[i] == 0:
                assert agent.rng.bit_generator.state == states[i]
                assert agent.updates == 0
                assert set(stats[0][f"s{i}"].values()) == {0.0}
            else:
                assert agent.updates == 1

    def test_more_groups_than_cores_switching_every_microsecond(
            self, monkeypatch):
        """Four update threads on two cores, the interpreter switching
        between them every microsecond, two rollout lengths (one group
        of scattered rows): every agent still matches its own plain
        update, which a lost or crossed row write would break."""
        import sys
        self._groups(monkeypatch, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            trainer = self._trainer(32)
            lengths = [100 if i % 5 else 60 for i in range(32)]
            self._check(trainer, lengths, np.random.default_rng(4), rounds=1)
        finally:
            sys.setswitchinterval(interval)

    def test_one_agent(self):
        agent = PPOAgent(PPOConfig(seed=5, **_ORACLE_CFG))
        plain = _PlainPPO(agent)
        rng = np.random.default_rng(3)
        for last in (None, rng.normal(size=24)):
            _fill([agent], [plain], rng, [100], truncate_at=(50,))
            assert agent.update(last) == plain.update(last)
            _assert_same_as_oracle(agent, plain)
        state = agent.rng.bit_generator.state
        assert agent.update() == plain.update()        # empty: a no-op
        assert agent.rng.bit_generator.state == state
        assert agent.updates == 2


class TestUpdateThreads:
    @staticmethod
    def _loaded(n_agents=16):
        from repro.rl.ippo import IPPOTrainer
        cfg = PPOConfig(seed=0, obs_dim=6, hidden=(16, 16), epochs=1)
        trainer = IPPOTrainer([f"s{i}" for i in range(n_agents)], cfg)
        rng = np.random.default_rng(0)
        agents = list(trainer.agents.values())
        _fill(agents, [_PlainPPO(a) for a in agents], rng, [20] * n_agents)
        return trainer

    def test_no_update_thread_outlives_update(self, monkeypatch):
        import threading

        import repro.rl.stacked as stacked_mod
        monkeypatch.setattr(stacked_mod, "usable_cores", lambda: 2)
        started = []
        real_start = threading.Thread.start

        def spy_start(th):
            started.append(th)
            real_start(th)

        monkeypatch.setattr(threading.Thread, "start", spy_start)
        trainer = self._loaded()
        trainer.update()
        assert [th.name[:10] for th in started] == ["ppo-update"]
        assert not any(th.is_alive() for th in started)
        assert not [th for th in threading.enumerate()
                    if th.name.startswith("ppo-update")]

    def test_a_failing_group_raises_after_every_thread_joined(self,
                                                              monkeypatch):
        import threading

        import repro.rl.stacked as stacked_mod
        monkeypatch.setattr(stacked_mod, "usable_cores", lambda: 2)
        trainer = self._loaded()
        learner = trainer.learner
        real_train = learner._train
        finished = []

        def train(rows, *rest):
            if rows[0] != 0:                  # the second group fails
                raise RuntimeError("group failed")
            out = real_train(rows, *rest)
            finished.append(threading.current_thread().name)
            return out

        monkeypatch.setattr(learner, "_train", train)
        with pytest.raises(RuntimeError, match="group failed"):
            trainer.update()
        assert finished == ["MainThread"]
        assert not [th for th in threading.enumerate()
                    if th.name.startswith("ppo-update")]
        assert all(len(a.buffer) == 20 for a in trainer.agents.values())

    def test_engine_workers_share_the_cores(self):
        """PET jobs through ``run_scenario_grid`` over two workers run the
        same bytes as in process, and each worker starts no more update
        groups than its share of the cores."""
        from repro.analysis.experiments import (clear_pretrain_cache,
                                                run_scenario_grid)
        from repro.fingerprint import fingerprint
        from repro.obs import metrics
        from repro.parallel import usable_cores

        jobs = [("pet", _two_group_scenario(s)) for s in (3, 14)]

        def groups(workers):
            reg = metrics.MetricsRegistry()
            prev = metrics.set_registry(reg)
            clear_pretrain_cache()
            try:
                out = run_scenario_grid(jobs, workers=workers)
            finally:
                metrics.set_registry(prev)
                clear_pretrain_cache()
            seen = [s.maximum for (name, _), s in reg.histograms.items()
                    if name == "ppo.update_groups"]
            return fingerprint(out), seen

        local, local_groups = groups(1)
        fanned, fanned_groups = groups(2)
        assert fanned == local
        cores = usable_cores()
        assert max(local_groups) == min(cores, 2)
        assert len(fanned_groups) == 2                    # one per task
        assert max(fanned_groups) <= max(1, cores // 2)


def _two_group_scenario(seed):
    """A PET job on a fabric with switches enough for two update groups."""
    from repro.analysis.experiments import ScenarioConfig
    from repro.netsim.fluid import FluidConfig
    from repro.rl.stacked import MIN_AGENTS_PER_GROUP
    return ScenarioConfig(
        duration=0.005, pretrain_intervals=11, seed=seed, load=0.5,
        incast=False, pet={"update_interval": 5, "ppo_epochs": 2},
        fluid=FluidConfig(n_spine=2, n_leaf=2 * MIN_AGENTS_PER_GROUP - 2,
                          hosts_per_leaf=2, host_rate_bps=10e9,
                          spine_rate_bps=40e9))
