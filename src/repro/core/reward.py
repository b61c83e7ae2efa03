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
from repro.netsim.network import QueueStats

__all__ = ["RewardComputer", "REWARD_LOG_LEN"]

#: rewards each controller keeps per switch for ``mean_recent_reward`` —
#: the largest trailing window it can average.  The log is a diagnostic,
#: so it must not grow with the run (one float per switch per tick would).
REWARD_LOG_LEN = 1024


class RewardComputer:
    """Computes per-switch rewards from interval statistics."""

    def __init__(self, config: PETConfig) -> None:
        self.config = config

    def throughput_term(self, stats: QueueStats) -> float:
        """T = txRate / BW, clamped to [0, 1]."""
        return stats.utilization

    def latency_term(self, stats: QueueStats) -> float:
        """La: bounded by default, literal 1/qlen when configured.

        The switch statistics aggregate every egress queue, so the
        occupancy is first normalized per queue — Eq. 8's
        ``queueLength_avg`` is a per-queue quantity.
        """
        avg_q = max(stats.avg_qlen_per_queue, 0.0)
        if self.config.raw_reciprocal_reward:
            # Literal Eq. 8 with a floor of one MTU to avoid division by 0.
            return 1.0 / max(avg_q, 1_000.0) * 1_000.0
        ref = max(self.config.reward_qlen_ref_bytes, 1.0)
        return 1.0 / (1.0 + avg_q / ref)

    def compute(self, stats: QueueStats) -> float:
        """r = beta1*T + beta2*La (Eq. 6)."""
        return (self.config.beta1 * self.throughput_term(stats)
                + self.config.beta2 * self.latency_term(stats))

    def compute_fleet(self, cols: TelemetryColumns) -> np.ndarray:
        """:meth:`compute` for every record of ``cols`` at once."""
        cfg = self.config
        avg_q = np.maximum(cols.avg_qlen_per_queue, 0.0)
        if cfg.raw_reciprocal_reward:
            latency = 1.0 / np.maximum(avg_q, 1_000.0) * 1_000.0
        else:
            latency = 1.0 / (1.0 + avg_q / max(cfg.reward_qlen_ref_bytes, 1.0))
        return cfg.beta1 * cols.utilization + cfg.beta2 * latency
