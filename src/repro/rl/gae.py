"""Generalized Advantage Estimation (paper Eq. 9–10).

Given per-step rewards ``r_t``, value predictions ``V(s_t)`` and the
bootstrap value of the final state, GAE computes::

    delta_t = r_t + gamma * V(s_{t+1}) - V(s_t)              (Eq. 10)
    A_t     = delta_t + (gamma*lambda) * delta_{t+1} + ...   (Eq. 9)

Episode boundaries are handled through ``dones`` — and the *kind* of
boundary matters:

- a **terminated** step (``dones[t]`` True, not truncated) reached an
  absorbing state: nothing follows, so no bootstrap (``V(s_{t+1}) = 0``);
- a **truncated** step (``dones[t]`` True and ``truncateds[t]`` True)
  merely hit a time limit — the environment would have kept paying
  reward, so the delta must bootstrap ``gamma * V(s_{t+1})`` from
  ``bootstrap_values[t]`` (the critic's value of the state the episode
  was cut off at).  The advantage chain still resets: credit never
  flows across episode boundaries.

Conflating the two (the pre-fix behaviour) zeroes ``V(s_T)`` at every
time-limit boundary and biases returns low on continuing tasks — which
is *every* task in this repo, since ECN tuning has no terminal states.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["compute_gae", "discounted_returns"]


def _episode_boundaries(shape: Tuple[int, ...], dones: np.ndarray,
                        truncateds: Optional[np.ndarray],
                        bootstrap_values: Optional[np.ndarray]
                        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``dones`` as a bool array of the rewards' ``shape``, and the
    successor value of each done step: ``bootstrap_values`` at
    truncations, zero at terminations — ``None`` (all zero) unless both
    optional arrays are given.  Every array must have that shape.
    """
    dones = np.asarray(dones, dtype=bool)
    if dones.shape != shape:
        raise ValueError("dones must match the shape of rewards")
    if truncateds is not None:
        truncateds = np.asarray(truncateds, dtype=bool)
        if truncateds.shape != shape:
            raise ValueError("truncateds must match the shape of rewards")
    if bootstrap_values is not None:
        bootstrap_values = np.asarray(bootstrap_values, dtype=np.float64)
        if bootstrap_values.shape != shape:
            raise ValueError(
                "bootstrap_values must match the shape of rewards")
    if truncateds is None or bootstrap_values is None:
        return dones, None
    return dones, np.where(truncateds, bootstrap_values, 0.0)


def compute_gae(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
                last_value, gamma: float, lam: float,
                truncateds: Optional[np.ndarray] = None,
                bootstrap_values: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Compute GAE advantages and bootstrapped returns.

    Parameters
    ----------
    rewards, values, dones:
        Arrays of one shape ``(..., T)``: the last axis is time, any
        leading axes are independent rollouts (one per agent, for the
        stacked learner); ``values[..., t] = V(s_t)``, ``dones[..., t]``
        is True when ``s_{t+1}`` starts a new episode.
    last_value:
        ``V(s_T)``, the bootstrap value of the state after the rollout
        (used when the rollout does not end on a ``done``): a float, or
        one per leading index.
    gamma, lam:
        Discount factor and the GAE lambda.
    truncateds:
        Optional bool array of the same shape; ``truncateds[..., t]``
        marks ``dones[..., t]`` as a time-limit truncation rather than a
        true termination.  A truncated step bootstraps
        ``gamma * bootstrap_values[..., t]`` in its delta while still
        cutting the advantage chain.
    bootstrap_values:
        ``V`` of the successor state for each truncated step (ignored
        elsewhere).  Required semantically when ``truncateds`` has any
        True entry; missing values default to 0 (the old, biased
        behaviour) so callers can opt in incrementally.

    Returns
    -------
    advantages, returns:
        ``returns = advantages + values`` (the regression target R-hat of
        paper Eq. 12).  Each rollout's values are the ones it would get
        alone: the scan is elementwise across the leading axes.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != rewards.shape:
        raise ValueError("values must match the shape of rewards")
    dones, resets = _episode_boundaries(rewards.shape, dones, truncateds,
                                        bootstrap_values)
    adv = np.empty(rewards.shape)
    T = rewards.shape[-1]
    if T == 0:
        return adv, adv.copy()
    # V(s_{t+1}) per step: shifted values, done steps replaced by their
    # successor value
    nv = np.empty(rewards.shape)
    nv[..., :-1] = values[..., 1:]
    nv[..., -1] = last_value
    nv = np.where(dones, 0.0 if resets is None else resets, nv)
    delta = rewards + gamma * nv
    delta -= values
    # Eq. 9 as one reverse scan over time; at a done step the chain
    # restarts from that step's delta
    gl = gamma * lam
    gae = np.zeros(rewards.shape[:-1])
    for t in range(T - 1, -1, -1):
        dt = delta[..., t]
        gae = np.where(dones[..., t], dt, dt + gl * gae)
        adv[..., t] = gae
    returns = adv + values
    return adv, returns


def discounted_returns(rewards: np.ndarray, dones: np.ndarray, last_value: float,
                       gamma: float, truncateds: Optional[np.ndarray] = None,
                       bootstrap_values: Optional[np.ndarray] = None
                       ) -> np.ndarray:
    """Plain rewards-to-go with bootstrap (Algorithm 1, line 6).

    Truncation handling mirrors :func:`compute_gae`: a truncated step
    restarts the running return from ``bootstrap_values[t]`` instead of
    zero, and every array must have the length of ``rewards`` (one
    rollout: unlike :func:`compute_gae`, this takes 1-D arrays only).
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    T = len(rewards)
    dones, resets = _episode_boundaries(rewards.shape, dones, truncateds,
                                        bootstrap_values)
    out = np.zeros(T)
    restart = None if resets is None else resets.tolist()
    rl_ = rewards.tolist()
    dn = dones.tolist()
    running = float(last_value)
    for t in range(T - 1, -1, -1):
        if dn[t]:
            running = 0.0 if restart is None else restart[t]
        running = rl_[t] + gamma * running
        out[t] = running
    return out
