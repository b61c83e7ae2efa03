"""The hyperparameters of PPO with the clipped surrogate objective.

Each PET switch runs PPO independently.  The policy loss is the paper's
Eq. 11::

    L_pi(theta) = E[ min( ratio * A,  clip(ratio, 1-eps, 1+eps) * A ) ]

(maximized; we descend its negation) and the value loss is Eq. 12::

    L_v(omega) = E[ (V_omega(s) - R_hat)^2 ]

Gradients are computed analytically at the logits/value head and
backpropagated through the packed NumPy MLPs, by the stacked learner of
:mod:`repro.rl.stacked`; :class:`~repro.rl.ippo.IPPOTrainer` is its
front door, a lone agent a trainer of one id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["PPOConfig"]


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

    def __post_init__(self) -> None:
        if self.actor_lr <= 0 or self.critic_lr <= 0:
            raise ValueError("learning rate must be positive")
