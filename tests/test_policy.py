"""Tests for the softmax policy head, the action sampler (on a one-agent
learner), the logit gradients and the Eq. 13 exploration schedule."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl import stacked
from repro.rl.policy import ExplorationSchedule, softmax
from repro.rl.ippo import IPPOTrainer
from repro.rl.ppo import PPOConfig
from repro.rl.stacked import grad_entropy_logits, grad_log_prob_logits
from tests import plain_rl


class TestSoftmax:
    def test_sums_to_one(self):
        z = np.random.default_rng(0).normal(size=(5, 7))
        p = softmax(z)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0)
        assert np.all(p > 0)

    def test_shift_invariance(self):
        z = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(z), softmax(z + 100.0))

    def test_numerical_stability_large_logits(self):
        p = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)


def _log_softmax(z):
    return np.log(softmax(z))


@settings(max_examples=60, deadline=None)
@given(agents=st.sampled_from([1, 6, 32]),
       eps=st.sampled_from([0.0, 0.05, 1.0]),
       n_actions=st.sampled_from([1, 2, 10]),
       zeros=st.sampled_from(["none", "some", "row"]),
       seed=st.integers(0, 2**32 - 1), calls=st.integers(1, 4))
def test_one_pass_sampler_equals_the_per_row_oracle(agents, eps, n_actions,
                                                    zeros, seed, calls):
    """Actions, log-probabilities and every generator's state after the
    call equal the per-row ``rng.choice`` oracle's, for epsilon 0, small
    and 1 (per row, or left out), with probabilities that are exactly
    zero in places or in a whole row."""
    data = np.random.default_rng(seed)
    rngs = [np.random.default_rng([seed, a]) for a in range(agents)]
    twins = copy.deepcopy(rngs)
    for _ in range(calls):
        probs = softmax(data.normal(size=(agents, n_actions)))
        if zeros == "some":
            probs[data.random(probs.shape) < 0.4] = 0.0
        elif zeros == "row":
            probs[data.integers(agents)] = 0.0
        epsilons = None if eps == 0.0 else [eps] * agents
        with np.errstate(invalid="ignore", divide="ignore"):
            got = stacked.sample(probs, rngs, epsilons)
            want = plain_rl.sample(probs, twins, epsilons)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()
        assert [r.bit_generator.state for r in rngs] == \
            [t.bit_generator.state for t in twins]


class TestCategoricalPolicy:
    """The policy of a lone agent (a trainer of one id): the learner's
    forward and sampler."""

    N_ACTIONS = 4

    def _agent(self, seed=0):
        return IPPOTrainer(["a"], PPOConfig(obs_dim=3,
                                            n_actions=self.N_ACTIONS,
                                            hidden=(8,), seed=seed))

    @staticmethod
    def _act(agent, obs, **kw):
        return agent.act({"a": obs}, **kw)["a"]

    @staticmethod
    def _probs(agent, obs):
        return agent.learner.probs([0], obs)[0]

    def test_act_returns_valid_action_and_logprob(self):
        agent = self._agent()
        d = self._act(agent, np.zeros(3))
        assert 0 <= d["action"] < self.N_ACTIONS
        assert d["log_prob"] <= 0.0
        assert d["log_prob"] == float(np.log(
            self._probs(agent, np.zeros(3))[0, d["action"]]))

    def test_greedy_picks_argmax(self):
        agent = self._agent()
        obs = np.ones(3)
        p = self._probs(agent, obs)[0]
        rng = agent.learner.rngs[0]
        state = rng.bit_generator.state
        d = self._act(agent, obs, greedy=True)
        assert d["action"] == int(np.argmax(p))
        assert d == plain_rl.act(agent.state_dict()["a"], None, obs,
                                 greedy=True)
        assert rng.bit_generator.state == state

    def test_sampling_matches_distribution(self):
        """Draws follow the policy, and are exactly ``rng.choice(n, p=p)``
        on the agent's generator and the plain 2-D forward's ``p``."""
        agent = self._agent(seed=3)
        obs = np.ones(3)
        p = self._probs(agent, obs)[0]
        state = agent.state_dict()["a"]
        twin = copy.deepcopy(agent.learner.rngs[0])
        counts = np.zeros(self.N_ACTIONS)
        n = 5000
        for _ in range(n):
            d = self._act(agent, obs)
            assert d == plain_rl.act(state, twin, obs)
            counts[d["action"]] += 1
        np.testing.assert_allclose(counts / n, p, atol=0.03)

    def test_epsilon_one_is_uniform(self):
        agent = self._agent(seed=4)
        obs = np.ones(3)
        state = agent.state_dict()["a"]
        twin = copy.deepcopy(agent.learner.rngs[0])
        counts = np.zeros(self.N_ACTIONS)
        n = 4000
        for i in range(n):
            eps = 1.0 if i % 10 else 0.5
            d = self._act(agent, obs, epsilon=eps)
            assert d == plain_rl.act(state, twin, obs, epsilon=eps)
            counts[d["action"]] += 1
        np.testing.assert_allclose(counts / n, 0.25, atol=0.04)

    def test_entropy_bounds(self):
        """The entropy of the policy, and the one an update reports, lie
        in [0, log n]."""
        agent = self._agent()
        p = self._probs(agent, np.zeros((2, 3)))
        h = -(p * np.log(p)).sum(axis=-1)
        assert np.all(h >= 0)
        assert np.all(h <= np.log(self.N_ACTIONS) + 1e-9)
        rng = np.random.default_rng(0)
        for _ in range(16):
            obs = rng.normal(size=3)
            d = self._act(agent, obs)
            agent.learner.record(0, obs, d["action"], 1.0, True,
                                 d["log_prob"], d["value"])
        ent = agent.update()["a"]["entropy"]
        assert 0.0 < ent <= np.log(self.N_ACTIONS) + 1e-9

    def test_batch_obs_rejected_by_act(self):
        """One agent, one observation: two rows for one agent raise."""
        agent = self._agent()
        with pytest.raises(ValueError):
            agent.act(np.zeros((2, 3)), rows=np.array([0]))

    def test_grad_log_prob_logits(self):
        """Analytic d log p(a)/d z vs numerical differentiation."""
        rng = np.random.default_rng(5)
        z = rng.normal(size=(1, 4))
        a = np.array([2])
        analytic = grad_log_prob_logits(softmax(z), a)
        eps = 1e-6
        num = np.zeros_like(z)
        for j in range(4):
            zp, zm = z.copy(), z.copy()
            zp[0, j] += eps
            zm[0, j] -= eps
            num[0, j] = (_log_softmax(zp)[0, a[0]] -
                         _log_softmax(zm)[0, a[0]]) / (2 * eps)
        np.testing.assert_allclose(analytic, num, atol=1e-6)

    def test_grad_entropy_logits(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(1, 5))

        def entropy(zz):
            p = softmax(zz)
            return float(-(p * np.log(p)).sum())

        analytic = grad_entropy_logits(softmax(z))
        eps = 1e-6
        num = np.zeros_like(z)
        for j in range(5):
            zp, zm = z.copy(), z.copy()
            zp[0, j] += eps
            zm[0, j] -= eps
            num[0, j] = (entropy(zp) - entropy(zm)) / (2 * eps)
        np.testing.assert_allclose(analytic, num, atol=1e-6)


class TestExplorationSchedule:
    def test_constant_during_warmup(self):
        s = ExplorationSchedule(eps0=0.2, decay_rate=0.99, decay_step=50)
        vals = [s.step() for _ in range(51)]
        assert all(v == pytest.approx(0.2) for v in vals)

    def test_eq13_decay_after_warmup(self):
        s = ExplorationSchedule(eps0=0.2, decay_rate=0.99, decay_step=50)
        for _ in range(51):
            s.step()
        # t = 51 now
        expected = 0.99 ** (51 / 50) * 0.2
        assert s.value() == pytest.approx(expected)

    def test_monotone_decay(self):
        s = ExplorationSchedule(eps0=0.5, decay_rate=0.9, decay_step=10)
        vals = [s.step() for _ in range(200)]
        assert vals[-1] < vals[20] < vals[0] + 1e-12
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_min_eps_floor(self):
        s = ExplorationSchedule(eps0=0.5, decay_rate=0.5, decay_step=1,
                                min_eps=0.1)
        for _ in range(100):
            s.step()
        assert s.value() == pytest.approx(0.1)

    def test_reset(self):
        s = ExplorationSchedule(eps0=0.3, decay_rate=0.9, decay_step=5)
        for _ in range(50):
            s.step()
        s.reset()
        assert s.value() == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExplorationSchedule(eps0=1.5)
        with pytest.raises(ValueError):
            ExplorationSchedule(decay_rate=0.0)
        with pytest.raises(ValueError):
            ExplorationSchedule(decay_step=0)
