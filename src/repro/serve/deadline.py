"""Deadline-bounded decides: a slow policy can delay, never stall.

The paper's premise is a per-Δt control loop on live switches; a
``decide`` that overruns its tick budget is as bad as a crash.  Python
offers no safe in-thread preemption, so the plane runs every decide on
a dedicated daemon worker thread and waits on the result with a
timeout:

- **on time** → the outcome carries the decide's return value and its
  :class:`~repro.serve.lifecycle.BufferedNetwork` writes, which the
  caller may flush;
- **timeout** → the caller gets a ``"timeout"`` outcome immediately
  (static fallback happens in the *same tick*); the wedged worker keeps
  running, but its writes land in a stale buffer no one flushes;
- **wedged worker** → the next submission notices the worker is still
  busy, abandons it (a sentinel unblocks it once the stale decide
  finally returns) and spawns a replacement, up to
  ``max_replacements`` — after which every submission reports
  ``"exhausted"`` and the plane pins itself to static ECN.

Exceptions raised by the decide are captured and returned as an
``"error"`` outcome with the exception preserved.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["DecideOutcome", "DeadlineDecider"]


@dataclass
class DecideOutcome:
    """Result of one deadline-bounded call."""

    status: str                       # "ok" | "timeout" | "error" | "exhausted"
    value: Any = None
    error: Optional[BaseException] = None
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class _Job:
    __slots__ = ("fn", "args", "kwargs", "done", "value", "error",
                 "duration_s")

    def __init__(self, fn: Callable[..., Any], args: tuple,
                 kwargs: dict) -> None:
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.done = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.duration_s = 0.0


class DeadlineDecider:
    """Run callables on a replaceable worker thread with a wall budget."""

    def __init__(self, *, max_replacements: int = 8,
                 name: str = "serve-decide") -> None:
        if max_replacements < 0:
            raise ValueError("max_replacements must be >= 0")
        self.max_replacements = max_replacements
        self.replacements = 0
        self.name = name
        self._inbox: "queue.Queue[Optional[_Job]]" = queue.Queue()
        self._worker: Optional[threading.Thread] = None
        self._pending: Optional[_Job] = None
        self._serial = 0

    @property
    def exhausted(self) -> bool:
        return self.replacements > self.max_replacements

    def _spawn(self) -> None:
        inbox = self._inbox

        def loop() -> None:
            while True:
                job = inbox.get()
                if job is None:
                    return                      # abandoned: drain and exit
                started = time.perf_counter()
                try:
                    job.value = job.fn(*job.args, **job.kwargs)
                except BaseException as exc:    # noqa: BLE001 — captured
                    job.error = exc
                job.duration_s = time.perf_counter() - started
                job.done.set()

        self._serial += 1
        self._worker = threading.Thread(
            target=loop, name=f"{self.name}-{self._serial}", daemon=True)
        self._worker.start()

    def _ensure_worker(self) -> bool:
        """A live, idle worker is ready; False when replacements ran out."""
        pending = self._pending
        wedged = pending is not None and not pending.done.is_set()
        dead = self._worker is not None and not self._worker.is_alive()
        if wedged or dead:
            self.replacements += 1
            if self.exhausted:
                return False
            # Unblock the old worker once its stale decide returns, and
            # hand further jobs to a fresh queue + thread.
            self._inbox.put(None)
            self._inbox = queue.Queue()
            self._worker = None
        if self._worker is None:
            if self.exhausted:
                return False
            self._spawn()
        return True

    def submit(self, fn: Callable[..., Any], *args: Any,
               budget_s: float, **kwargs: Any) -> DecideOutcome:
        """Run ``fn(*args, **kwargs)`` with at most ``budget_s`` seconds."""
        if budget_s <= 0.0:
            raise ValueError("budget_s must be positive")
        if not self._ensure_worker():
            return DecideOutcome(status="exhausted")
        job = _Job(fn, args, kwargs)
        self._pending = job
        self._inbox.put(job)
        if not job.done.wait(timeout=budget_s):
            return DecideOutcome(status="timeout", duration_s=budget_s)
        self._pending = None
        if job.error is not None:
            return DecideOutcome(status="error", error=job.error,
                                 duration_s=job.duration_s)
        return DecideOutcome(status="ok", value=job.value,
                             duration_s=job.duration_s)

    def close(self) -> None:
        """Release the current worker (pending job, if any, is abandoned)."""
        self._inbox.put(None)
        self._inbox = queue.Queue()
        self._worker = None
        self._pending = None
