"""Single-agent PPO with the clipped surrogate objective.

This is the learner each PET switch runs independently.  The policy loss
is the paper's Eq. 11::

    L_pi(theta) = E[ min( ratio * A,  clip(ratio, 1-eps, 1+eps) * A ) ]

(maximized; we descend its negation) and the value loss is Eq. 12::

    L_v(omega) = E[ (V_omega(s) - R_hat)^2 ]

Gradients are computed analytically at the logits/value head and
backpropagated through the NumPy MLPs, by the stacked learner of
:mod:`repro.rl.stacked` (an agent on its own is its one-row case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.rl.nn import MLP
from repro.rl.policy import CategoricalPolicy
from repro.rl.stacked import PPOLearner, RolloutBuffer

__all__ = ["PPOConfig", "RolloutBuffer", "PPOAgent", "approx_kl_k3"]


def approx_kl_k3(old_logp: np.ndarray, new_logp: np.ndarray) -> float:
    """The k3 KL estimator ``E[(ratio - 1) - log(ratio)]``.

    The naive k1 estimator ``E[old_logp - new_logp]`` is signed: its
    per-sample terms cancel, it frequently goes negative, and it is
    useless as a divergence diagnostic.  k3 (Schulman, "Approximating KL
    Divergence") is non-negative term-by-term — ``(x-1) - log(x) >= 0``
    for all x > 0 — unbiased, and low-variance, so it is the standard
    early-stopping/trust-region signal.
    """
    log_ratio = np.asarray(new_logp) - np.asarray(old_logp)
    return float(np.mean((np.exp(log_ratio) - 1.0) - log_ratio))


@dataclass
class PPOConfig:
    """Hyperparameters; defaults follow paper §5.2."""

    obs_dim: int = 6
    n_actions: int = 10
    hidden: tuple = (64, 64)
    actor_lr: float = 4e-4       # paper: actor 0.0004
    critic_lr: float = 1e-3      # paper: critic 0.001
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_eps: float = 0.2        # paper: 0.2
    entropy_coef: float = 0.01   # paper: GAE variance/bias coefficient 0.01
    epochs: int = 4              # SGD epochs per update (Algorithm 1: N)
    minibatch_size: int = 64
    max_grad_norm: float = 0.5
    normalize_advantages: bool = True
    seed: Optional[int] = None


class PPOAgent:
    """Actor-critic PPO learner with separate actor/critic networks.

    The agent's weights, Adam moments and rollout are row ``row`` of a
    :class:`~repro.rl.stacked.PPOLearner` (``learner``): a fresh agent
    is the one row of its own, and :class:`~repro.rl.ippo.IPPOTrainer`
    stacks its agents into one.  Its generator ``rng`` draws its initial
    weights, its actions and its epoch shuffles.
    """

    def __init__(self, config: PPOConfig) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.actor = MLP([config.obs_dim, *config.hidden, config.n_actions],
                         activation="tanh", out_scale=0.01, rng=self.rng)
        self.critic = MLP([config.obs_dim, *config.hidden, 1],
                          activation="tanh", rng=self.rng)
        self.policy = CategoricalPolicy(self.actor, rng=self.rng)
        self.learner: PPOLearner       # these three are set by the
        self.row: int                  # learner that adopts the agent
        self.buffer: RolloutBuffer
        PPOLearner([self])

    @property
    def updates(self) -> int:
        """Completed updates."""
        return int(self.learner.updates[self.row])

    # -- acting ------------------------------------------------------------
    def value(self, obs: np.ndarray) -> float:
        return float(self.critic.forward(np.atleast_2d(obs))[0, 0])

    def act(self, obs: np.ndarray, *, epsilon: float = 0.0,
            greedy: bool = False) -> Dict[str, float]:
        """Select an action; returns dict with action, log_prob and value."""
        a, logp = self.policy.act(obs, epsilon=epsilon, greedy=greedy)
        return {"action": a, "log_prob": logp, "value": self.value(obs)}

    def record(self, obs: np.ndarray, action: int, reward: float, done: bool,
               log_prob: float, value: float, *, truncated: bool = False,
               bootstrap_value: Optional[float] = None) -> None:
        """Store one transition.

        ``truncated`` marks a time-limit episode end (Gym's
        ``info["TimeLimit.truncated"]``): GAE then bootstraps through
        the boundary instead of zeroing ``V(s_{t+1})``.  For a
        truncation in the *middle* of a buffer, pass ``bootstrap_value
        = agent.value(next_obs)`` (the successor state's value — the
        obs recorded at the next step belongs to a new episode); a
        truncation on the buffer's *final* step bootstraps automatically
        from the ``last_obs`` handed to :meth:`update`.
        """
        self.buffer.add(obs, action, reward, done, log_prob, value,
                        truncated=truncated,
                        bootstrap_value=(0.0 if bootstrap_value is None
                                         else float(bootstrap_value)))

    # -- learning ----------------------------------------------------------
    def update(self, last_obs: Optional[np.ndarray] = None
               ) -> Dict[str, float]:
        """Run PPO epochs over the stored rollout and clear the buffer:
        the learner's update of this one row.

        Returns diagnostics: mean policy loss, value loss, entropy,
        approximate KL, and clip fraction.
        """
        last = None if last_obs is None else np.ravel(last_obs)[None]
        return self.learner.update(np.array([self.row]), last)[0]

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> Dict[str, Dict[str, np.ndarray]]:
        return {"actor": self.actor.state_dict(),
                "critic": self.critic.state_dict()}

    def load_state_dict(self, state: Dict[str, Dict[str, np.ndarray]]) -> None:
        self.actor.load_state_dict(state["actor"])
        self.critic.load_state_dict(state["critic"])
