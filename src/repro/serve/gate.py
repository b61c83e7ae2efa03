"""Promotion gate: windowed no-regression check for canary policies.

While the incumbent acts, the plane keeps a rolling **baseline window**
of per-tick fabric metrics (mean queue length, mean utilization, FCTs
of flows that finished in the tick).  When a canary starts acting the
baseline is frozen, a fresh **canary window** accumulates, and once it
holds ``eval_min_ticks`` samples the gate compares the two every tick:

- mean queue length may not regress beyond ``queue_tolerance``
  (relative) plus ``queue_slack_bytes`` (absolute — keeps near-zero
  baselines from tripping on noise);
- mean FCT may not regress beyond ``fct_tolerance`` (skipped while a
  window saw no finished flows);
- mean utilization may not drop by more than ``util_tolerance``.

Any breach rolls the canary back immediately; surviving
``canary_ticks`` promotes it.  Thresholds are deliberately dumb and
auditable — the safety property lives in the lifecycle (shadow-first,
bounded blast radius, automatic rollback), not in a clever statistic.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

__all__ = ["GateConfig", "MetricWindow", "WindowSummary", "GateDecision",
           "PromotionGate"]


@dataclass(frozen=True)
class GateConfig:
    """Rollout-discipline knobs."""

    #: clean shadow ticks required before canary promotion.
    min_shadow_ticks: int = 25
    #: acting ticks a canary must survive to be promoted.
    canary_ticks: int = 150
    #: canary samples required before the gate starts judging.
    eval_min_ticks: int = 25
    #: ticks a rolled-back policy sits out before re-promotion.
    cooldown_ticks: int = 100
    #: baseline/canary window capacity, in ticks.
    window_ticks: int = 100
    #: relative mean-queue regression allowed (0.25 = +25%).
    queue_tolerance: float = 0.25
    #: absolute queue slack added on top of the relative tolerance.
    queue_slack_bytes: float = 5_000.0
    #: relative mean-FCT regression allowed.
    fct_tolerance: float = 0.25
    #: absolute FCT slack (seconds).
    fct_slack_s: float = 1e-4
    #: relative mean-utilization drop allowed.
    util_tolerance: float = 0.10
    #: consecutive faulty decides before a shadow is suspended, a canary
    #: rolled back or an incumbent demoted.
    max_strikes: int = 3
    #: only let a canary act while the plane is healthy.
    canary_requires_ready: bool = True

    def __post_init__(self) -> None:
        if self.min_shadow_ticks < 1 or self.canary_ticks < 1:
            raise ValueError("shadow/canary tick counts must be >= 1")
        if self.eval_min_ticks < 1 or self.window_ticks < 1:
            raise ValueError("window sizes must be >= 1")
        if self.max_strikes < 1:
            raise ValueError("max_strikes must be >= 1")
        for tol in (self.queue_tolerance, self.fct_tolerance,
                    self.util_tolerance):
            if not math.isfinite(tol) or tol < 0.0:
                raise ValueError("tolerances must be finite and >= 0")


@dataclass
class WindowSummary:
    """Aggregates the gate compares."""

    ticks: int = 0
    queue_mean_bytes: float = 0.0
    util_mean: float = 0.0
    fct_mean_s: Optional[float] = None      # None: no flows finished
    fct_count: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {"ticks": self.ticks,
                "queue_mean_bytes": self.queue_mean_bytes,
                "util_mean": self.util_mean,
                "fct_mean_s": self.fct_mean_s, "fct_count": self.fct_count}


class MetricWindow:
    """Rolling per-tick fabric metrics."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._queue: Deque[float] = deque(maxlen=capacity)
        self._util: Deque[float] = deque(maxlen=capacity)
        #: (sum_of_fcts, count) per tick, so FCT means weight flows not ticks.
        self._fct: Deque[Any] = deque(maxlen=capacity)

    def push(self, *, queue_mean_bytes: float, util_mean: float,
             fcts_s: Optional[List[float]] = None) -> None:
        self._queue.append(float(queue_mean_bytes))
        self._util.append(float(util_mean))
        fcts = fcts_s or []
        self._fct.append((float(sum(fcts)), len(fcts)))

    def __len__(self) -> int:
        return len(self._queue)

    def clear(self) -> None:
        self._queue.clear()
        self._util.clear()
        self._fct.clear()

    def summary(self) -> WindowSummary:
        n = len(self._queue)
        if n == 0:
            return WindowSummary()
        fct_total = sum(s for s, _ in self._fct)
        fct_count = sum(c for _, c in self._fct)
        return WindowSummary(
            ticks=n,
            queue_mean_bytes=sum(self._queue) / n,
            util_mean=sum(self._util) / n,
            fct_mean_s=(fct_total / fct_count) if fct_count else None,
            fct_count=fct_count)


@dataclass
class GateDecision:
    """One gate evaluation: pass, or breach with the reasons."""

    breach: bool
    reasons: List[str] = field(default_factory=list)
    baseline: Optional[WindowSummary] = None
    canary: Optional[WindowSummary] = None

    def as_dict(self) -> Dict[str, Any]:
        return {"breach": self.breach, "reasons": list(self.reasons),
                "baseline": self.baseline.as_dict() if self.baseline else None,
                "canary": self.canary.as_dict() if self.canary else None}


class PromotionGate:
    """Compare a canary window against a frozen incumbent baseline."""

    def __init__(self, config: Optional[GateConfig] = None) -> None:
        self.config = config or GateConfig()

    def evaluate(self, baseline: WindowSummary,
                 canary: WindowSummary) -> GateDecision:
        cfg = self.config
        reasons: List[str] = []
        if canary.ticks < cfg.eval_min_ticks:
            return GateDecision(breach=False, baseline=baseline,
                                canary=canary)
        if baseline.ticks == 0:
            # No baseline (fresh plane): nothing to regress against.
            return GateDecision(breach=False, baseline=baseline,
                                canary=canary)
        queue_limit = (baseline.queue_mean_bytes * (1.0 + cfg.queue_tolerance)
                       + cfg.queue_slack_bytes)
        if canary.queue_mean_bytes > queue_limit:
            reasons.append(
                f"queue {canary.queue_mean_bytes:.0f}B > "
                f"limit {queue_limit:.0f}B "
                f"(baseline {baseline.queue_mean_bytes:.0f}B)")
        if baseline.fct_mean_s is not None and canary.fct_mean_s is not None:
            fct_limit = (baseline.fct_mean_s * (1.0 + cfg.fct_tolerance)
                         + cfg.fct_slack_s)
            if canary.fct_mean_s > fct_limit:
                reasons.append(
                    f"fct {canary.fct_mean_s * 1e3:.3f}ms > "
                    f"limit {fct_limit * 1e3:.3f}ms "
                    f"(baseline {baseline.fct_mean_s * 1e3:.3f}ms)")
        util_floor = baseline.util_mean * (1.0 - cfg.util_tolerance)
        if canary.util_mean < util_floor:
            reasons.append(
                f"utilization {canary.util_mean:.3f} < "
                f"floor {util_floor:.3f} (baseline {baseline.util_mean:.3f})")
        return GateDecision(breach=bool(reasons), reasons=reasons,
                            baseline=baseline, canary=canary)
