"""Tests for Generalized Advantage Estimation (paper Eq. 9-10)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rl.gae import compute_gae, discounted_returns


class TestComputeGAE:
    def test_single_step(self):
        adv, ret = compute_gae(rewards=[1.0], values=[0.5], dones=[False],
                               last_value=2.0, gamma=0.9, lam=0.95)
        # delta = 1 + 0.9*2 - 0.5 = 2.3
        assert adv[0] == pytest.approx(2.3)
        assert ret[0] == pytest.approx(2.8)

    def test_terminal_step_no_bootstrap(self):
        adv, _ = compute_gae([1.0], [0.5], [True], last_value=99.0,
                             gamma=0.9, lam=0.95)
        assert adv[0] == pytest.approx(0.5)   # 1 - 0.5, last_value ignored

    def test_matches_hand_computation(self):
        r = np.array([1.0, 0.0, 2.0])
        v = np.array([0.5, 0.4, 0.3])
        gamma, lam = 0.9, 0.8
        deltas = np.array([
            r[0] + gamma * v[1] - v[0],
            r[1] + gamma * v[2] - v[1],
            r[2] + gamma * 1.0 - v[2],
        ])
        expected2 = deltas[2]
        expected1 = deltas[1] + gamma * lam * expected2
        expected0 = deltas[0] + gamma * lam * expected1
        adv, ret = compute_gae(r, v, [False] * 3, last_value=1.0,
                               gamma=gamma, lam=lam)
        np.testing.assert_allclose(adv, [expected0, expected1, expected2])
        np.testing.assert_allclose(ret, adv + v)

    def test_lambda_zero_is_td_error(self):
        r = np.array([1.0, 2.0])
        v = np.array([0.5, 0.4])
        adv, _ = compute_gae(r, v, [False, False], last_value=0.3,
                             gamma=0.9, lam=0.0)
        np.testing.assert_allclose(adv, [1 + 0.9 * 0.4 - 0.5,
                                         2 + 0.9 * 0.3 - 0.4])

    def test_lambda_one_is_montecarlo_minus_value(self):
        r = np.array([1.0, 1.0, 1.0])
        v = np.array([0.0, 0.0, 0.0])
        gamma = 0.5
        adv, _ = compute_gae(r, v, [False, False, True], last_value=0.0,
                             gamma=gamma, lam=1.0)
        # discounted reward-to-go: [1 + .5 + .25, 1 + .5, 1]
        np.testing.assert_allclose(adv, [1.75, 1.5, 1.0])

    def test_done_resets_accumulation(self):
        r = np.array([1.0, 1.0])
        v = np.array([0.0, 0.0])
        adv, _ = compute_gae(r, v, [True, False], last_value=0.0,
                             gamma=0.9, lam=0.9)
        # first step terminal: advantage exactly its reward
        assert adv[0] == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_gae([1.0], [0.5, 0.2], [False], 0.0, 0.9, 0.9)


class TestTruncation:
    """Time-limit truncation vs true termination (the headline bugfix:
    a truncated step bootstraps V of its successor instead of zeroing)."""

    def test_truncated_step_bootstraps_successor_value(self):
        adv, ret = compute_gae([1.0], [0.5], [True], last_value=0.0,
                               gamma=0.9, lam=0.95,
                               truncateds=[True], bootstrap_values=[2.0])
        # delta = 1 + 0.9 * V(s_T) - 0.5, V(s_T) = 2 (not zero)
        assert adv[0] == pytest.approx(2.3)
        assert ret[0] == pytest.approx(2.8)

    def test_terminated_step_still_zeroes_successor(self):
        adv, _ = compute_gae([1.0], [0.5], [True], last_value=0.0,
                             gamma=0.9, lam=0.95,
                             truncateds=[False], bootstrap_values=[2.0])
        assert adv[0] == pytest.approx(0.5)    # bootstrap_values ignored

    def test_truncation_still_cuts_advantage_chain(self):
        """Credit must not flow across the episode boundary even though
        the delta bootstraps through it."""
        adv, _ = compute_gae([1.0, 1.0], [0.0, 0.0], [True, False],
                             last_value=0.0, gamma=0.9, lam=0.9,
                             truncateds=[True, False],
                             bootstrap_values=[2.0, 0.0])
        # step 0 advantage is its own delta only: 1 + 0.9*2 = 2.8
        assert adv[0] == pytest.approx(2.8)

    def test_missing_bootstrap_values_fall_back_to_old_behaviour(self):
        adv, _ = compute_gae([1.0], [0.5], [True], last_value=0.0,
                             gamma=0.9, lam=0.95, truncateds=[True])
        assert adv[0] == pytest.approx(0.5)

    def test_truncateds_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_gae([1.0], [0.5], [True], 0.0, 0.9, 0.9,
                        truncateds=[True, False])
        with pytest.raises(ValueError):
            compute_gae([1.0], [0.5], [True], 0.0, 0.9, 0.9,
                        truncateds=[True], bootstrap_values=[1.0, 2.0])

    def test_discounted_returns_restart_from_bootstrap(self):
        out = discounted_returns([1.0, 1.0], [True, False], last_value=10.0,
                                 gamma=0.9, truncateds=[True, False],
                                 bootstrap_values=[5.0, 0.0])
        assert out[0] == pytest.approx(1.0 + 0.9 * 5.0)
        assert out[1] == pytest.approx(1.0 + 0.9 * 10.0)


class TestDiscountedReturns:
    def test_simple_chain(self):
        out = discounted_returns([1.0, 1.0, 1.0], [False, False, False],
                                 last_value=0.0, gamma=0.5)
        np.testing.assert_allclose(out, [1.75, 1.5, 1.0])

    def test_bootstrap_from_last_value(self):
        out = discounted_returns([0.0], [False], last_value=10.0, gamma=0.9)
        assert out[0] == pytest.approx(9.0)

    def test_done_cuts_bootstrap(self):
        out = discounted_returns([1.0, 1.0], [True, False], last_value=10.0,
                                 gamma=0.9)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(10.0)


# ------------------------------------------------------------- plain loops
def _gae_loop(rewards, values, dones, last_value, gamma, lam, truncateds,
              bootstrap_values):
    """Eq. 9-10 one step at a time, indexing the arrays."""
    T = len(rewards)
    adv = np.zeros(T)
    gae = 0.0
    next_value = float(last_value)
    for t in range(T - 1, -1, -1):
        if dones[t]:
            # the chain resets; only a truncation bootstraps
            boot = 0.0
            if truncateds is not None and truncateds[t] \
                    and bootstrap_values is not None:
                boot = float(bootstrap_values[t])
            gae = rewards[t] + gamma * boot - values[t]
        else:
            delta = rewards[t] + gamma * next_value - values[t]
            gae = delta + gamma * lam * gae
        adv[t] = gae
        next_value = values[t]
    return adv, adv + values


def _returns_loop(rewards, dones, last_value, gamma, truncateds,
                  bootstrap_values):
    T = len(rewards)
    out = np.zeros(T)
    running = float(last_value)
    for t in range(T - 1, -1, -1):
        if dones[t]:
            running = 0.0
            if truncateds is not None and truncateds[t] \
                    and bootstrap_values is not None:
                running = float(bootstrap_values[t])
        running = rewards[t] + gamma * running
        out[t] = running
    return out


@given(seed=st.integers(0, 2**16), t=st.integers(0, 40),
       with_truncs=st.booleans(), with_boots=st.booleans())
@settings(max_examples=80, deadline=None)
def test_gae_and_returns_equal_plain_loops_bit_for_bit(seed, t, with_truncs,
                                                       with_boots):
    rng = np.random.default_rng(seed)
    rewards = rng.normal(size=t)
    values = rng.normal(size=t)
    dones = rng.random(t) < 0.2
    truncs = dones & (rng.random(t) < 0.5)
    boots = np.where(truncs, rng.normal(size=t), 0.0)
    last_value = float(rng.normal())
    truncs = truncs if with_truncs else None
    boots = boots if with_boots else None
    adv, ret = compute_gae(rewards, values, dones, last_value, 0.99, 0.95,
                           truncateds=truncs, bootstrap_values=boots)
    want_adv, want_ret = _gae_loop(rewards, values, dones, last_value,
                                   0.99, 0.95, truncs, boots)
    assert adv.tobytes() == want_adv.tobytes()
    assert ret.tobytes() == want_ret.tobytes()
    rtg = discounted_returns(rewards, dones, last_value, 0.99,
                             truncateds=truncs, bootstrap_values=boots)
    assert rtg.tobytes() == _returns_loop(rewards, dones, last_value, 0.99,
                                          truncs, boots).tobytes()


# ------------------------------------------------------------- validation
_GOOD = dict(rewards=[1.0, 2.0], values=[0.5, 0.4], dones=[False, True],
             truncateds=[False, True], bootstrap_values=[0.0, 3.0])


@pytest.mark.parametrize("field", ["values", "dones", "truncateds",
                                   "bootstrap_values"])
@pytest.mark.parametrize("length", [1, 3])
def test_compute_gae_rejects_each_length_mismatch(field, length):
    args = dict(_GOOD, **{field: [0.0] * length})
    with pytest.raises(ValueError, match=field):
        compute_gae(args["rewards"], args["values"], args["dones"], 0.0,
                    0.9, 0.9, truncateds=args["truncateds"],
                    bootstrap_values=args["bootstrap_values"])


@pytest.mark.parametrize("field", ["dones", "truncateds", "bootstrap_values"])
@pytest.mark.parametrize("length", [1, 3])
def test_discounted_returns_rejects_each_length_mismatch(field, length):
    """Surplus ``dones`` used to be ignored, and ``truncateds`` /
    ``bootstrap_values`` of another length mis-aligned or raised a bare
    ``IndexError``."""
    args = dict(_GOOD, **{field: [0.0] * length})
    with pytest.raises(ValueError, match=field):
        discounted_returns(args["rewards"], args["dones"], 0.0, 0.9,
                           truncateds=args["truncateds"],
                           bootstrap_values=args["bootstrap_values"])
