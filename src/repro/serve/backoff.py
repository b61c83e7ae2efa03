"""Retry with exponential backoff — the serve plane's I/O discipline.

Every read the control plane performs against a flaky substrate
(telemetry pulls, checkpoint hot-reloads) goes through
:func:`retry_call`: bounded attempts, exponentially growing delays, and
a structured :class:`RetryExhausted` when the budget runs out so the
caller can degrade instead of crash.  The sleep function is injectable,
so tests drive the schedule deterministically without wall-clock waits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Type

__all__ = ["RetryPolicy", "RetryExhausted", "retry_call"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential-backoff schedule."""

    #: total attempts (first try included); 1 means no retries.
    attempts: int = 3
    #: delay before the first retry, in seconds.
    base_delay_s: float = 0.01
    #: multiplier applied per further retry.
    factor: float = 2.0
    #: ceiling on any single delay.
    max_delay_s: float = 1.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay_s < 0.0 or self.max_delay_s < 0.0:
            raise ValueError("delays must be non-negative")
        if self.factor < 1.0:
            raise ValueError("backoff factor must be >= 1")

    def delay(self, retry_index: int) -> float:
        """Delay before retry ``retry_index`` (0-based)."""
        return min(self.base_delay_s * self.factor ** retry_index,
                   self.max_delay_s)


class RetryExhausted(RuntimeError):
    """All attempts failed; ``last`` holds the final exception."""

    def __init__(self, attempts: int, last: BaseException) -> None:
        self.attempts = attempts
        self.last = last
        super().__init__(f"gave up after {attempts} attempt(s): "
                         f"{type(last).__name__}: {last}")


def retry_call(fn: Callable[[], Any], *,
               policy: Optional[RetryPolicy] = None,
               retry_on: Tuple[Type[BaseException], ...] = (Exception,),
               sleep: Callable[[float], None] = time.sleep) -> Any:
    """Call ``fn()`` until it succeeds or the policy is exhausted.

    Only exceptions matching ``retry_on`` are retried; anything else
    propagates immediately (a programming error should not be hammered).
    """
    pol = policy or RetryPolicy()
    last: Optional[BaseException] = None
    for attempt in range(pol.attempts):
        try:
            return fn()
        except retry_on as exc:          # noqa: BLE001 — caller chose the set
            last = exc
            if attempt == pol.attempts - 1:
                break
            sleep(pol.delay(attempt))
    assert last is not None
    raise RetryExhausted(pol.attempts, last) from last
