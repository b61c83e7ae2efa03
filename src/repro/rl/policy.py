"""Categorical policies and exploration schedules.

:class:`CategoricalPolicy` wraps a logits network with a softmax head and
provides sampling, log-probabilities, entropy, and the analytic gradients
of those quantities with respect to the logits (used by the PPO learner's
manual backprop).

:class:`ExplorationSchedule` implements the paper's exponentially decaying
exploration rate (Eq. 13)::

    eps_t = decay_rate ** (t / T) * eps      for t > T

with ``eps_t = eps`` during the warm-up phase ``t <= T``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.parallel.seeding import fallback_rng

from repro.rl.nn import MLP

__all__ = ["softmax", "log_softmax", "CategoricalPolicy", "ExplorationSchedule"]


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically-stable softmax over the last axis."""
    z = np.asarray(z, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Numerically-stable log-softmax over the last axis."""
    z = np.asarray(z, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class CategoricalPolicy:
    """Discrete stochastic policy ``pi(a|s) = softmax(net(s))``.

    Parameters
    ----------
    net:
        Logits network mapping ``(batch, obs_dim)`` to ``(batch, n_actions)``.
    rng:
        Generator used for action sampling and epsilon exploration.
    """

    def __init__(self, net: MLP, rng: np.random.Generator | None = None) -> None:
        self.net = net
        self.rng = rng if rng is not None else fallback_rng(0)
        self.n_actions = net.sizes[-1]

    def probs(self, obs: np.ndarray) -> np.ndarray:
        return softmax(self.net.forward(obs))

    def log_probs(self, obs: np.ndarray) -> np.ndarray:
        return log_softmax(self.net.forward(obs))

    def act(self, obs: np.ndarray, *, epsilon: float = 0.0,
            greedy: bool = False) -> Tuple[int, float]:
        """Sample one action for a single observation.

        Returns ``(action, log_prob_of_action)`` under the *policy*
        distribution (ignoring the epsilon mixing, as is standard for
        epsilon-assisted on-policy exploration in the online phase).
        """
        obs = np.atleast_2d(obs)
        if obs.shape[0] != 1:
            raise ValueError("act() expects a single observation")
        p = self.probs(obs)[0]
        if greedy:
            a = int(np.argmax(p))
        elif epsilon > 0.0 and self.rng.random() < epsilon:
            a = int(self.rng.integers(self.n_actions))
        else:
            a = int(self.rng.choice(self.n_actions, p=p))
        logp = float(np.log(max(p[a], 1e-12)))
        return a, logp

    def entropy(self, obs: np.ndarray) -> np.ndarray:
        p = self.probs(obs)
        logp = np.log(np.clip(p, 1e-12, None))
        return -(p * logp).sum(axis=-1)

    # -- analytic logits gradients (for manual backprop) ------------------
    @staticmethod
    def grad_log_prob_logits(probs: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """d log pi(a|s) / d logits = onehot(a) - probs, rowwise (any
        leading axes: ``actions`` has the shape of ``probs[..., 0]``)."""
        g = -probs
        at = np.asarray(actions)[..., None]
        np.put_along_axis(g, at, np.take_along_axis(g, at, -1) + 1.0, -1)
        return g

    @staticmethod
    def grad_entropy_logits(probs: np.ndarray) -> np.ndarray:
        """d H(pi) / d logits = -p * (log p + H), rowwise."""
        logp = np.log(np.clip(probs, 1e-12, None))
        ent = -(probs * logp).sum(axis=-1, keepdims=True)
        return -probs * (logp + ent)


class ExplorationSchedule:
    """Exponentially decaying epsilon (paper Eq. 13).

    ``eps`` stays at ``eps0`` for the first ``decay_step`` (= T) steps and
    then decays as ``decay_rate ** (t / T) * eps0``.  The paper uses
    ``decay_rate=0.99`` and ``T=50`` (§5.2).
    """

    def __init__(self, eps0: float = 0.2, decay_rate: float = 0.99,
                 decay_step: int = 50, min_eps: float = 0.0) -> None:
        if not 0.0 <= eps0 <= 1.0:
            raise ValueError("eps0 must be in [0, 1]")
        if not 0.0 < decay_rate <= 1.0:
            raise ValueError("decay_rate must be in (0, 1]")
        if decay_step <= 0:
            raise ValueError("decay_step must be positive")
        self.eps0 = eps0
        self.decay_rate = decay_rate
        self.decay_step = decay_step
        self.min_eps = min_eps
        self.t = 0

    def value(self) -> float:
        """Current epsilon without advancing the step counter."""
        if self.t <= self.decay_step:
            return self.eps0
        eps = self.decay_rate ** (self.t / self.decay_step) * self.eps0
        return max(eps, self.min_eps)

    def step(self) -> float:
        """Advance one training step and return the epsilon to use."""
        eps = self.value()
        self.t += 1
        return eps

    def reset(self) -> None:
        self.t = 0
