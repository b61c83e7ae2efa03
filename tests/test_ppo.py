"""Tests for the PPO learner (paper Eq. 11-12).

A lone agent is an :class:`~repro.rl.ippo.IPPOTrainer` of one id (``"a"``):
it acts through the trainer, records into row 0 of the learner's
rollout arrays and updates through the trainer.
"""

import numpy as np
import pytest

from repro.rl.ippo import IPPOTrainer
from repro.rl.ppo import PPOConfig
from tests import plain_rl


def _agent(**overrides):
    cfg = PPOConfig(obs_dim=3, n_actions=4, hidden=(16, 16), seed=0,
                    **overrides)
    return IPPOTrainer(["a"], cfg)


def _act(trainer, obs, aid="a", **kw):
    return trainer.act({aid: obs}, **kw)[aid]


def _record(trainer, obs, d, reward, done, row=0, **kw):
    trainer.learner.record(row, obs, d["action"], reward, done,
                           d["log_prob"], d["value"], **kw)


def _rollout(trainer, name, row=0):
    """Column ``name`` of agent ``row``'s rollout, as stored so far."""
    learner = trainer.learner
    return getattr(learner, name)[row, :learner.length[row]]


class TestRolloutBuffer:
    """An agent's rollout is a row of its learner's rollout arrays."""

    def test_add_and_len(self):
        trainer = _agent()
        trainer.learner.record(0, np.zeros(3), 1, 0.5, False, -0.2, 0.1)
        assert trainer.learner.length[0] == 1
        assert _rollout(trainer, "actions").tolist() == [1]
        assert _rollout(trainer, "rewards").tolist() == [0.5]
        trainer.update()
        assert trainer.learner.length[0] == 0

    def test_flattens_obs(self):
        trainer = _agent()
        trainer.record({"a": np.zeros((1, 3))},
                       {"a": {"action": 0, "log_prob": 0.0, "value": 0.0}},
                       {"a": 0.0}, {"a": False})
        assert _rollout(trainer, "obs")[0].shape == (3,)

    def test_grows_past_its_capacity_keeping_every_row(self):
        trainer = _agent()
        for t in range(150):
            trainer.learner.record(0, np.full(3, t), t % 4, float(t), False,
                                   0.0, 0.0)
        assert trainer.learner.cap >= 150
        assert _rollout(trainer, "obs")[:, 0].tolist() == list(range(150))
        assert _rollout(trainer, "rewards").tolist() == [
            float(t) for t in range(150)]


class TestPPOAgent:
    """A lone agent: a trainer of one id."""

    def test_act_returns_decision(self):
        d = _act(_agent(), np.zeros(3))
        assert set(d) == {"action", "log_prob", "value"}
        assert 0 <= d["action"] < 4

    def test_update_on_empty_buffer_is_noop(self):
        trainer = _agent()
        stats = trainer.update()["a"]
        assert stats["policy_loss"] == 0.0
        assert trainer.learner.updates[0] == 0

    def test_update_clears_buffer_and_counts(self):
        trainer = _agent()
        for _ in range(8):
            _record(trainer, np.zeros(3), _act(trainer, np.zeros(3)), 1.0,
                    False)
        stats = trainer.update({"a": np.zeros(3)})["a"]
        assert trainer.learner.length[0] == 0
        assert trainer.learner.updates[0] == 1
        assert np.isfinite(stats["policy_loss"])
        assert np.isfinite(stats["value_loss"])

    def test_learns_contextual_bandit(self):
        """Reward 1 iff action == argmax(obs); PPO should find it."""
        rng = np.random.default_rng(0)
        agent = _agent(actor_lr=5e-3, critic_lr=5e-3, epochs=6)
        for it in range(60):
            for _ in range(64):
                obs = rng.normal(size=3)
                d = _act(agent, obs)
                reward = 1.0 if d["action"] == int(np.argmax(obs)) else 0.0
                _record(agent, obs, d, reward, True)
            agent.update()
        hits = 0
        for _ in range(200):
            obs = rng.normal(size=3)
            d = _act(agent, obs, greedy=True)
            hits += d["action"] == int(np.argmax(obs))
        assert hits / 200 > 0.8

    def test_value_regression(self):
        """Critic converges to constant return on a fixed-reward problem."""
        agent = _agent(critic_lr=1e-2, gamma=0.0)
        obs = np.ones(3)
        for _ in range(40):
            for _ in range(32):
                _record(agent, obs, _act(agent, obs), 2.0, True)
            agent.update()
        assert agent.values({"a": obs})["a"] == pytest.approx(2.0, abs=0.3)

    def test_checkpoint_roundtrip(self):
        a = _agent()
        b = IPPOTrainer(["a"], PPOConfig(obs_dim=3, n_actions=4,
                                         hidden=(16, 16), seed=9))
        obs = np.ones(3)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.learner.probs([0], obs),
                                   b.learner.probs([0], obs))
        assert a.values({"a": obs})["a"] == pytest.approx(
            b.values({"a": obs})["a"])

    def test_greedy_act_deterministic(self):
        agent = _agent()
        actions = {_act(agent, np.ones(3), greedy=True)["action"]
                   for _ in range(10)}
        assert len(actions) == 1

    def test_update_reports_nonnegative_kl(self):
        rng = np.random.default_rng(1)
        agent = _agent(epochs=4, actor_lr=1e-2)
        for _ in range(32):
            o = rng.normal(size=3)
            _record(agent, o, _act(agent, o), rng.normal(), False)
        stats = agent.update({"a": np.zeros(3)})["a"]
        assert stats["approx_kl"] >= 0.0

    def test_policy_moves_toward_advantaged_action(self):
        """A single update with positive advantage on one action should
        raise that action's probability (the Eq. 11 ascent direction)."""
        agent = _agent(epochs=1, normalize_advantages=False,
                       entropy_coef=0.0)
        obs = np.zeros(3)
        p_before = agent.learner.probs([0], obs)[0, 0]
        target = 2
        logp = float(np.log(p_before[target]))
        # many identical transitions, all rewarding action `target`
        for _ in range(32):
            agent.learner.record(0, obs, target, 1.0, True, logp, 0.0)
        agent.update()
        p_after = agent.learner.probs([0], obs)[0, 0]
        assert p_after[target] > p_before[target]


class TestKLEstimator:
    """The k3 estimator replacing the signed k1 ``mean(old - new)``: the
    oracle of the learner's ``approx_kl`` (``tests/plain_rl.py``)."""

    def test_identical_policies_give_zero(self):
        lp = np.log(np.full(4, 0.25))
        assert plain_rl.approx_kl_k3(lp, lp) == pytest.approx(0.0)

    def test_nonnegative_where_k1_goes_negative(self):
        # samples whose likelihood rose under the new policy: k1 < 0
        old = np.log(np.array([0.5, 0.4, 0.3]))
        new = np.log(np.array([0.7, 0.6, 0.5]))
        k1 = float(np.mean(old - new))
        assert k1 < 0
        assert plain_rl.approx_kl_k3(old, new) >= 0.0

    def test_termwise_nonnegative(self):
        rng = np.random.default_rng(0)
        old = np.log(rng.uniform(0.05, 0.95, size=100))
        new = np.log(rng.uniform(0.05, 0.95, size=100))
        log_ratio = new - old
        terms = (np.exp(log_ratio) - 1.0) - log_ratio
        assert np.all(terms >= 0.0)       # (x-1) - log(x) >= 0 for x > 0
        assert plain_rl.approx_kl_k3(old, new) == pytest.approx(terms.mean())

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
        assert plain_rl.approx_kl_k3(old, new) == pytest.approx(exact)


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
            last = i == n - 1
            _record(agent, obs, _act(agent, obs), 1.0, final_done and last,
                    truncated=final_truncated and last)

    def test_truncated_episode_end_bootstraps_last_value(self, monkeypatch):
        captured = self._capture_gae_args(monkeypatch)
        agent = _agent()
        obs = np.ones(3)
        expected_v = agent.values({"a": obs})["a"]     # critic pre-update
        self._fill(agent, obs, 8, final_done=False, final_truncated=True)
        agent.update({"a": obs})
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
        agent.update({"a": obs})
        assert captured["dones"][-1]
        assert not captured["truncateds"][-1]
        assert captured["last_value"] == 0.0
        assert captured["bootstrap_values"][-1] == 0.0

    def test_mid_buffer_truncation_carries_explicit_bootstrap(self, monkeypatch):
        captured = self._capture_gae_args(monkeypatch)
        agent = _agent()
        obs = np.ones(3)
        _record(agent, obs, _act(agent, obs), 1.0, False, truncated=True,
                bootstrap=3.5)
        self._fill(agent, obs, 3, final_done=True, final_truncated=False)
        agent.update()
        assert captured["truncateds"][0]
        assert captured["bootstrap_values"][0] == pytest.approx(3.5)

    def test_buffer_records_truncation_as_done(self):
        trainer = _agent()
        trainer.learner.record(0, np.zeros(3), 0, 1.0, False, 0.0, 0.0,
                               truncated=True)
        assert _rollout(trainer, "dones").tolist() == [True]
        assert _rollout(trainer, "truncateds").tolist() == [True]
        trainer.update()
        assert len(_rollout(trainer, "truncateds")) == 0
        assert len(_rollout(trainer, "bootstraps")) == 0


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
            _record(agent, obs, _act(agent, obs), float(rng.normal()),
                    t % 9 == 8)
        obs, actions = (_rollout(agent, "obs").copy(),
                        _rollout(agent, "actions").copy())
        old_logp = _rollout(agent, "log_probs").copy()

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
        shuffler = copy.deepcopy(learner.rngs[0])
        agent.update({"a": np.zeros(3)})

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
    replaced, kept as its oracle: one agent's own plain MLPs with their
    own textbook Adam (``tests/plain_rl.py``), Python-list rollouts and a
    copy of its generator."""

    def __init__(self, trainer, aid):
        import copy

        cfg = self.cfg = trainer.config
        state = trainer.state_dict()[aid]
        self.actor = plain_rl.PlainMLP(state["actor"])
        self.critic = plain_rl.PlainMLP(state["critic"])
        self.row = trainer.agent_ids.index(aid)
        # _fill refreshes it
        self.rng = copy.deepcopy(trainer.learner.rngs[self.row])
        self.rollout = []

    def record(self, obs, action, reward, done, log_prob, value,
               truncated=False, bootstrap=0.0):
        self.rollout.append((np.asarray(obs, dtype=np.float64).ravel(),
                             int(action), float(reward),
                             bool(done) or bool(truncated), float(log_prob),
                             float(value), bool(truncated), float(bootstrap)))

    def update(self, last_obs=None):
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
                                    adv_e[mb], ret_e[mb])
                for k in stats:
                    stats[k] += s[k]
                batches += 1
        self.rollout = []
        return {k: v / batches for k, v in stats.items()}

    def _minibatch(self, obs, actions, old_logp, adv, returns):
        cfg = self.cfg
        m = len(obs)
        probs = plain_rl.softmax(self.actor.forward(obs))
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
        self.actor.step(self.actor.backward(grad_logits), cfg.actor_lr,
                        cfg.max_grad_norm)

        v = self.critic.forward(obs)[:, 0]
        value_loss = float(np.mean((v - returns) ** 2))
        self.critic.step(self.critic.backward((2.0 * (v - returns) / m)[:, None]),
                         cfg.critic_lr, cfg.max_grad_norm)

        return {"policy_loss": policy_loss, "value_loss": value_loss,
                "entropy": float(entropy.mean()),
                "approx_kl": plain_rl.approx_kl_k3(old_logp, new_logp),
                "clip_frac": float(np.mean(np.abs(ratio - 1.0)
                                           > cfg.clip_eps))}


def _assert_same_as_oracle(trainer, plain):
    """Weights, Adam moments and generator state, byte for byte."""
    learner, row = trainer.learner, plain.row
    for net, packed in ((plain.actor, learner.actor),
                        (plain.critic, learner.critic)):
        assert net.flat().tobytes() == packed.params[row].tobytes()
        assert net.flat(net.m).tobytes() == packed.m[row].tobytes()
        assert net.flat(net.v).tobytes() == packed.v[row].tobytes()
    assert (learner.rngs[row].bit_generator.state
            == plain.rng.bit_generator.state)


def _fill(trainer, plains, rng, lengths, *, truncate_at=()):
    """Record ``lengths[i]`` transitions for agent ``i`` (and its
    oracle); a step in ``truncate_at`` is a time-limit cut, mid-buffer
    ones carrying an explicit bootstrap value.  Each oracle then takes
    a copy of its agent's generator, which acting has advanced."""
    import copy

    dim = trainer.config.obs_dim
    for aid, plain, T in zip(trainer.agent_ids, plains, lengths):
        for t in range(T):
            obs = rng.normal(size=dim)
            d = _act(trainer, obs, aid, epsilon=0.1)
            reward = float(rng.normal())
            done = bool(rng.random() < 0.05)
            trunc = t in truncate_at or (t - T) in truncate_at
            boot = (float(rng.normal()) if trunc and t != T - 1 else 0.0)
            _record(trainer, obs, d, reward, done, plain.row,
                    truncated=trunc, bootstrap=boot)
            plain.record(obs, d["action"], reward, done, d["log_prob"],
                         d["value"], truncated=trunc, bootstrap=boot)
        plain.rng = copy.deepcopy(trainer.learner.rngs[plain.row])


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
        ids = trainer.agent_ids
        plains = [_PlainPPO(trainer, aid) for aid in ids]
        stats_seen = []
        for _ in range(rounds):
            _fill(trainer, plains, rng, lengths, truncate_at=truncate_at)
            last = {aid: rng.normal(size=trainer.config.obs_dim)
                    for i, aid in enumerate(ids)
                    if not bootstrap_some or i % 3}
            got = trainer.update(last)
            for aid, plain in zip(ids, plains):
                want = plain.update(last.get(aid))
                assert got[aid] == want, aid
                _assert_same_as_oracle(trainer, plain)
            assert not trainer.learner.length.any()
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
        rngs = trainer.learner.rngs
        states = [g.bit_generator.state for g in rngs]
        stats = self._check(trainer, lengths, np.random.default_rng(2),
                            rounds=1)
        for i, updates in enumerate(trainer.learner.updates.tolist()):
            if lengths[i] == 0:
                assert rngs[i].bit_generator.state == states[i]
                assert updates == 0
                assert set(stats[0][f"s{i}"].values()) == {0.0}
            else:
                assert updates == 1

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
        agent = IPPOTrainer(["a"], PPOConfig(seed=5, **_ORACLE_CFG))
        plain = _PlainPPO(agent, "a")
        rng = np.random.default_rng(3)
        for last in (None, rng.normal(size=24)):
            _fill(agent, [plain], rng, [100], truncate_at=(50,))
            got = agent.update(None if last is None else {"a": last})
            assert got["a"] == plain.update(last)
            _assert_same_as_oracle(agent, plain)
        state = agent.learner.rngs[0].bit_generator.state
        assert agent.update()["a"] == plain.update()    # empty: a no-op
        assert agent.learner.rngs[0].bit_generator.state == state
        assert agent.learner.updates[0] == 2


class TestUpdateThreads:
    @staticmethod
    def _loaded(n_agents=16):
        from repro.rl.ippo import IPPOTrainer
        cfg = PPOConfig(seed=0, obs_dim=6, hidden=(16, 16), epochs=1)
        trainer = IPPOTrainer([f"s{i}" for i in range(n_agents)], cfg)
        rng = np.random.default_rng(0)
        _fill(trainer, [_PlainPPO(trainer, aid) for aid in trainer.agent_ids],
              rng, [20] * n_agents)
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
        assert trainer.learner.length.tolist() == [20] * 16

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


class TestUpdateMemory:
    def test_second_update_peaks_under_8_mb(self, monkeypatch):
        """32 agents of PET's online shape (``PETConfig.fast()``: 100
        transitions, 10 epochs of 64-row minibatches) in two update
        groups.  Each group writes its minibatch temporaries and Adam's
        scratch into one workspace, so after a warm-up update the next
        one's traced peak stays under 8 MB; allocating them afresh per
        minibatch peaked near 13 MB."""
        import tracemalloc

        import repro.rl.stacked as stacked_mod
        from repro.core.config import PETConfig
        from repro.core.pet import ppo_config
        from repro.rl.ippo import IPPOTrainer
        monkeypatch.setattr(stacked_mod, "usable_cores", lambda: 2)
        pet = PETConfig.fast(seed=0)
        cfg = ppo_config(pet, n_actions=10)
        n = 32
        trainer = IPPOTrainer([f"s{i}" for i in range(n)], cfg)
        rows = np.arange(n)
        rng = np.random.default_rng(0)

        def update():
            for _ in range(pet.update_interval):
                obs = rng.normal(size=(n, cfg.obs_dim))
                d = trainer.act(obs, epsilons=[0.1] * n)
                trainer.learner.record(rows, obs, d["action"],
                                       rng.normal(size=n), False,
                                       d["log_prob"], d["value"])
            trainer.update(dict(zip(trainer.agent_ids,
                                    rng.normal(size=(n, cfg.obs_dim)))))

        dealt = []
        real_deal = stacked_mod._deal

        def deal(jobs, k):
            dealt.append(real_deal(jobs, k))
            return dealt[-1]

        monkeypatch.setattr(stacked_mod, "_deal", deal)
        update()
        tracemalloc.start()
        try:
            update()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(hands) for hands in dealt] == [2, 2]
        assert trainer.learner.updates.tolist() == [2] * n
        assert peak < 8 * 2**20, peak / 2**20


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
