"""The softmax policy head and the exploration schedule.

:func:`softmax` turns the actor's logits into action probabilities
(sampling and the logit gradients live beside the learner, in
:mod:`repro.rl.stacked`).

:class:`ExplorationSchedule` implements the paper's exponentially decaying
exploration rate (Eq. 13)::

    eps_t = decay_rate ** (t / T) * eps      for t > T

with ``eps_t = eps`` during the warm-up phase ``t <= T``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["softmax", "ExplorationSchedule"]


def softmax(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Numerically-stable softmax over the last axis, into ``out``
    (default new; ``z`` itself works)."""
    z = np.asarray(z, dtype=np.float64)
    e = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


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
