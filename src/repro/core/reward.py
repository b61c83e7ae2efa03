"""The PET reward (paper Eq. 6-8).

    r  = beta1 * T + beta2 * La            (Eq. 6)
    T  = txRate / BW                       (Eq. 7, link utilization)
    La = 1 / queueLength_avg               (Eq. 8, inverse queueing delay)

The literal Eq. 8 is unbounded as the average queue empties, which makes
the two terms incommensurable (T is in [0,1] while La diverges).  The
paper notes it *modified* the reward function to stabilize and speed up
IPPO convergence without spelling the modification out; we use the
bounded form

    La = 1 / (1 + avg_qlen / qlen_ref)   in (0, 1],

which preserves monotonicity in the queue length, equals 1 on an empty
queue, and crosses 1/2 at ``qlen_ref``.  Set
``PETConfig.raw_reciprocal_reward=True`` for the literal Eq. 8
(``tests/test_integration.py`` exercises training under both forms).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PETConfig
from repro.core.state import TelemetryColumns

__all__ = ["RewardComputer", "REWARD_LOG_LEN"]

#: rewards each controller keeps per switch for ``mean_recent_reward`` —
#: the largest trailing window it can average.  The log is a diagnostic,
#: so it must not grow with the run (one float per switch per tick would).
REWARD_LOG_LEN = 1024


class RewardComputer:
    """Computes per-switch (or per-queue) rewards from interval statistics."""

    def __init__(self, config: PETConfig) -> None:
        self.config = config

    def compute_fleet(self, cols: TelemetryColumns) -> np.ndarray:
        """r = beta1*T + beta2*La (Eq. 6) for every record of ``cols``.

        T is the utilization, clamped to [0, 1].  A record may aggregate
        several egress queues, so La's occupancy is first normalized per
        queue — Eq. 8's ``queueLength_avg`` is a per-queue quantity.
        """
        cfg = self.config
        avg_q = np.maximum(cols.avg_qlen_per_queue, 0.0)
        if cfg.raw_reciprocal_reward:
            # literal Eq. 8 with a floor of one MTU against division by 0
            latency = 1.0 / np.maximum(avg_q, 1_000.0) * 1_000.0
        else:
            latency = 1.0 / (1.0 + avg_q / max(cfg.reward_qlen_ref_bytes, 1.0))
        return cfg.beta1 * cols.utilization + cfg.beta2 * latency
