"""Discrete-event simulation engine.

A classic calendar-queue simulator: events are ``(time, seq, callback)``
entries in a binary heap; ``seq`` breaks ties FIFO so same-time events
execute in scheduling order (deterministic runs).  Events can be
cancelled in O(1) by flagging the handle; cancelled entries are skipped
at pop time (lazy deletion).

The heap stores ``(time, seq, Event)`` tuples, so sift comparisons stay
entirely in C (tuple comparison on ``(float, int)`` prefixes — ``seq``
is unique, so the ``Event`` element is never compared).
``tests/test_engine.py`` checks the execution order against a sorted
``(time, seq)`` list.

``pending()`` is O(1) via a live-event counter maintained at
schedule/cancel/pop; the O(n) heap scan remains as a debug assertion
under the runtime sanitizer (:mod:`repro.devtools.sanitize`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "Simulator"]

_INF = float("inf")
_heappush = heapq.heappush


class Event:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "executed", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple,
                 sim: "Optional[Simulator]" = None) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.executed = False
        self._sim = sim

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled events don't pin objects in the heap.
        self.fn = _noop
        self.args = ()
        # Transports routinely cancel timer handles that already fired
        # (e.g. re-arming from within the timer callback); those events
        # left the live count when they were popped for execution.
        if not self.executed:
            sim = self._sim
            if sim is not None:
                sim._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.9f} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    return None


def _sanitizer_enabled() -> bool:
    from repro.devtools.sanitize import is_enabled
    return is_enabled()


class Simulator:
    """Event loop with virtual time in seconds."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._live = 0
        self._events_processed = 0

    # -- scheduling ---------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at ``now + delay``."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        ev = Event(time, next(self._seq), fn, args, self)
        _heappush(self._heap, (time, ev.seq, ev))
        self._live += 1
        return ev

    # -- running -------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events until the horizon, the event cap, or exhaustion.

        Returns the number of events processed by this call.  After a run
        with a horizon, ``now`` is advanced to the horizon even if the heap
        drained earlier, so repeated ``run(until=...)`` calls advance a
        wall-clock-like timeline.
        """
        # Hot loop: heap ops and attribute lookups bound to locals; the
        # event batch between heap sifts never re-enters Python for
        # ordering (tuple comparisons run in C).
        heap = self._heap
        heappop = heapq.heappop
        horizon = _INF if until is None else until
        processed = 0
        try:
            while heap:
                entry = heap[0]
                t = entry[0]
                if t > horizon:
                    break
                heappop(heap)
                ev = entry[2]
                if ev.cancelled:
                    continue
                ev.executed = True
                self._live -= 1
                self.now = t
                ev.fn(*ev.args)
                processed += 1
                if max_events is not None and processed >= max_events:
                    break
        finally:
            self._events_processed += processed
        if until is not None and self.now < until:
            self.now = until
        return processed

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, if any."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def _scan_pending(self) -> int:
        """O(n) live-event count straight off the heap (debug only)."""
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def pending(self) -> int:
        """Number of non-cancelled events still queued (O(1)).

        Maintained as a live counter at schedule/cancel/pop; under the
        runtime sanitizer the heap scan cross-checks it.
        """
        live = self._live
        if _sanitizer_enabled():
            scan = self._scan_pending()
            assert live == scan, (
                f"pending() counter drifted: counter={live} scan={scan}")
        return live

    @property
    def events_processed(self) -> int:
        return self._events_processed
