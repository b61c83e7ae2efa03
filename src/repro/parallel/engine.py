"""Process-pool rollout engine: fan out independent simulation tasks.

Every evaluation surface in this repo — the scheme × load × seed job
grids of :func:`repro.analysis.experiments.run_scenario_grid` behind
the benchmark figures and the CLI — is a batch of *independent*
rollouts, and the engine runs such a batch with four guarantees the
figure pipeline depends on (docs/PARALLEL.md):

1. **pickled run-specs** — tasks travel to workers as pickled
   :class:`TaskSpec` records (module-level callable + args).  Specs are
   serialized *before* submission, so an unpicklable spec fails fast
   with a clear error instead of dying inside the pool.
2. **deterministic seeding** — each spec carries a seed derived via
   ``seed_root -> spawn_key(task_id)`` (:mod:`repro.parallel.seeding`);
   the engine installs it as the task-seed context in serial and
   parallel paths alike, so ``workers=1`` and ``workers=N`` hand every
   task identical randomness.
3. **ordered merging** — results are keyed by ``task_id`` and returned
   sorted, so parallel output is element-for-element identical to the
   serial run regardless of completion order.
4. **crash recovery** — a task whose worker process dies (segfault,
   OOM-kill, ``os._exit``) is retried once in an isolated single-worker
   pool; a second death records a structured :class:`TaskFailure`
   instead of hanging or poisoning the batch.  Ordinary exceptions are
   captured as failures immediately (they are deterministic — retrying
   cannot help) with the traceback preserved.  With ``task_timeout_s``
   set, a *hung* worker is bounded too: past the budget its processes
   are terminated, the task records a ``Timeout`` failure (no retry),
   and innocent in-flight tasks are resubmitted — ``run()`` can no
   longer block forever on one wedged task.

In-flight submissions are bounded (``queue_depth``, default
``2 * workers``) so a huge grid does not materialize every pending
future at once.

When telemetry (:mod:`repro.obs`) is enabled, every task executes
against a task-local :class:`~repro.obs.metrics.MetricsRegistry`; its
snapshot travels back with the result and is merged into the caller's
registry in task-id order (like the results themselves), each series
gaining a ``task=<id>`` label.  With telemetry disabled the snapshot
slot is ``None`` and the whole path is a single ``enabled()`` check.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.obs import metrics as obs_metrics
from repro.obs.trace import get_tracer
from repro.parallel import seeding

__all__ = ["TaskSpec", "TaskFailure", "TaskOutcome", "TaskFailedError",
           "EngineReport", "Engine", "run_tasks", "map_tasks",
           "usable_cores"]

#: how many processes of one :class:`Engine` pool share the machine's
#: cores: set in each pool worker as it starts, 1 everywhere else
_POOL_WORKERS = 1


def usable_cores() -> int:
    """The cores this process may keep busy: its CPU affinity set, or
    its share of that set inside an ``Engine(workers=N)`` worker, so the
    threads a task starts never oversubscribe the pool."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:                  # no affinity API here
        cores = os.cpu_count() or 1
    return max(1, cores // _POOL_WORKERS)


def _join_pool(workers: int) -> None:
    global _POOL_WORKERS
    _POOL_WORKERS = workers


@dataclass(frozen=True)
class TaskSpec:
    """One unit of work: a picklable callable plus its arguments.

    ``fn`` must be importable from the worker (module-level function or
    a :func:`functools.partial` over one).  ``seed``, when set, is
    installed as the task-seed context around the call — seed-less
    components then derive their randomness from it instead of the
    shared ``default_rng(0)`` fallback (see :mod:`repro.parallel.seeding`).
    """

    task_id: int
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Optional[Mapping[str, Any]] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise ValueError("task_id must be non-negative")


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of a task that did not produce a value."""

    task_id: int
    error_type: str
    message: str
    attempts: int
    worker_crashed: bool            # process death vs ordinary exception
    traceback: str = ""

    def __str__(self) -> str:
        kind = "worker crash" if self.worker_crashed else self.error_type
        return (f"task {self.task_id}: {kind} after {self.attempts} "
                f"attempt(s): {self.message}")


@dataclass
class TaskOutcome:
    """Result slot for one task: a value or a structured failure."""

    task_id: int
    value: Any = None
    failure: Optional[TaskFailure] = None
    wall_time_s: float = 0.0
    attempts: int = 1
    #: task-local metrics snapshot (telemetry enabled), else ``None``.
    metrics: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


class TaskFailedError(RuntimeError):
    """Raised by :meth:`EngineReport.values` when a strict batch failed."""

    def __init__(self, failures: Sequence[TaskFailure]) -> None:
        self.failures = list(failures)
        lines = "; ".join(str(f) for f in self.failures[:5])
        extra = ("" if len(self.failures) <= 5
                 else f" (+{len(self.failures) - 5} more)")
        super().__init__(f"{len(self.failures)} task(s) failed: {lines}{extra}")


@dataclass
class EngineReport:
    """Outcome of one batch, merged in task-id order."""

    outcomes: List[TaskOutcome]
    workers: int
    wall_time_s: float
    retries: int = 0

    @property
    def failures(self) -> List[TaskFailure]:
        return [o.failure for o in self.outcomes if o.failure is not None]

    @property
    def n_tasks(self) -> int:
        return len(self.outcomes)

    @property
    def tasks_per_second(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return len(self.outcomes) / self.wall_time_s

    def task_seconds(self) -> List[float]:
        """Per-task in-worker wall times, in task-id order."""
        return [o.wall_time_s for o in self.outcomes]

    def values(self, *, strict: bool = True) -> List[Any]:
        """Task values in task-id order.

        ``strict`` (default) raises :class:`TaskFailedError` when any
        task failed; otherwise failed slots hold ``None``.
        """
        if strict:
            failures = self.failures
            if failures:
                raise TaskFailedError(failures)
        return [o.value for o in self.outcomes]


def _execute_payload(payload: bytes, collect: bool) -> Tuple[
        int, Any, float, Optional[Dict[str, Any]]]:
    """Worker-side entry: unpickle one spec, run it under its task seed.

    With telemetry enabled, the task runs against a fresh task-local
    registry (so concurrent tasks in a forked pool cannot interleave,
    and serial tasks stay separable) and its picklable snapshot rides
    home in the fourth tuple slot.  The caller's enablement travels as
    a plain submission argument — batch-wide state is *not* re-pickled
    into every payload — so spawn-started workers (which do not inherit
    the parent's module state) still collect when the parent does.
    """
    spec = pickle.loads(payload)
    started = time.perf_counter()
    snapshot: Optional[Dict[str, Any]] = None
    if collect or obs_metrics.enabled():
        prev = obs_metrics.get_registry()
        task_reg = obs_metrics.MetricsRegistry()
        obs_metrics.set_registry(task_reg)
        try:
            with seeding.task_seed(spec.seed):
                value = spec.fn(*spec.args, **dict(spec.kwargs or {}))
        finally:
            obs_metrics.set_registry(prev)
        snapshot = task_reg.snapshot()
    else:
        with seeding.task_seed(spec.seed):
            value = spec.fn(*spec.args, **dict(spec.kwargs or {}))
    return spec.task_id, value, time.perf_counter() - started, snapshot


@dataclass
class _Pending:
    """Book-keeping for one not-yet-merged task."""

    spec: TaskSpec
    payload: bytes
    attempts: int = 0


class Engine:
    """Bounded process-pool executor with deterministic merging.

    Parameters
    ----------
    workers:
        ``1`` runs every task in-process (no pool, but identical
        seeding/retry/failure semantics); ``>1`` fans out over that many
        worker processes.
    queue_depth:
        Maximum in-flight submissions; defaults to ``2 * workers``.
    max_retries:
        How many times a task whose *worker died* is retried (in an
        isolated single-task pool).  Ordinary exceptions never retry.
    mp_context:
        Optional :mod:`multiprocessing` context name (``"fork"``,
        ``"spawn"``); ``None`` uses the platform default.
    task_timeout_s:
        Per-task wall-clock budget (parallel path only).  A task still
        running past it is killed — its worker processes are terminated
        — and recorded as a structured ``Timeout`` :class:`TaskFailure`
        (never retried: a hang is not a crash).  Innocent tasks
        in-flight on the terminated pool are resubmitted to a fresh
        pool without consuming their retry budget.  ``None`` disables
        enforcement.  The serial path cannot preempt in-process code
        and ignores it.
    """

    def __init__(self, workers: int = 1, *, queue_depth: Optional[int] = None,
                 max_retries: int = 1, mp_context: Optional[str] = None,
                 task_timeout_s: Optional[float] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if queue_depth is not None and queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive")
        self.workers = workers
        self.queue_depth = queue_depth or max(2 * workers, 2)
        self.max_retries = max_retries
        self.mp_context = mp_context
        self.task_timeout_s = task_timeout_s

    # -- public API ---------------------------------------------------------
    def run(self, specs: Sequence[TaskSpec]) -> EngineReport:
        """Execute a batch and merge outcomes in task-id order."""
        specs = list(specs)
        ids = [s.task_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate task_id in batch")
        started = time.perf_counter()
        # Batch-wide flags are submitted as primitives, not baked into
        # every payload: each pickle.dumps here serializes one spec only.
        collect = obs_metrics.enabled()
        pendings = [_Pending(spec=s, payload=pickle.dumps(s)) for s in specs]
        with get_tracer().span("engine.run", tasks=len(specs),
                               workers=self.workers):
            if self.workers == 1:
                outcomes, retries = self._run_serial(pendings, collect)
            else:
                outcomes, retries = self._run_parallel(pendings, collect)
        outcomes.sort(key=lambda o: o.task_id)
        self._publish_telemetry(outcomes, retries)
        return EngineReport(outcomes=outcomes, workers=self.workers,
                            wall_time_s=time.perf_counter() - started,
                            retries=retries)

    @staticmethod
    def _publish_telemetry(outcomes: Sequence[TaskOutcome],
                           retries: int) -> None:
        """Fold per-task metric snapshots into the caller's registry.

        Snapshots merge in task-id order (``outcomes`` arrives sorted),
        matching the deterministic result merge, with each series gaining
        a ``task=<id>`` label.  No-op when telemetry is disabled.
        """
        reg = obs_metrics.get_registry()
        if not reg:
            return
        for o in outcomes:
            if o.metrics is not None:
                reg.merge(o.metrics, extra_labels={"task": o.task_id})
            reg.observe("engine.task_s", o.wall_time_s)
        reg.inc("engine.tasks", len(outcomes))
        if retries:
            reg.inc("engine.retries", retries)
        failures = sum(1 for o in outcomes if not o.ok)
        if failures:
            reg.inc("engine.failures", failures)

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any], *,
            seed_root: Optional[int] = None) -> EngineReport:
        """Run ``fn(item)`` per item; task ids follow item order.

        With ``seed_root`` set, task *i* executes under the derived seed
        ``spawn_key(i)`` (see :func:`repro.parallel.seeding.derive_seed`).
        """
        specs = [TaskSpec(task_id=i, fn=fn, args=(item,),
                          seed=(None if seed_root is None
                                else seeding.derive_seed(seed_root, i)))
                 for i, item in enumerate(items)]
        return self.run(specs)

    # -- serial path --------------------------------------------------------
    def _run_serial(self, pendings: Sequence[_Pending], collect: bool
                    ) -> Tuple[List[TaskOutcome], int]:
        outcomes = [self._attempt_inprocess(p, collect) for p in pendings]
        return outcomes, 0

    @staticmethod
    def _attempt_inprocess(pending: _Pending, collect: bool) -> TaskOutcome:
        pending.attempts += 1
        try:
            task_id, value, wall, snap = _execute_payload(pending.payload,
                                                          collect)
        except Exception as exc:                      # deterministic: no retry
            return TaskOutcome(
                task_id=pending.spec.task_id,
                failure=TaskFailure(
                    task_id=pending.spec.task_id,
                    error_type=type(exc).__name__, message=str(exc),
                    attempts=pending.attempts, worker_crashed=False,
                    traceback=traceback.format_exc()),
                attempts=pending.attempts)
        return TaskOutcome(task_id=task_id, value=value, wall_time_s=wall,
                           attempts=pending.attempts, metrics=snap)

    # -- parallel path ------------------------------------------------------
    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        # every worker learns the engine's fan-out (usable_cores)
        share = {"initializer": _join_pool, "initargs": (self.workers,)}
        if self.mp_context is None:
            return ProcessPoolExecutor(max_workers=workers, **share)
        import multiprocessing
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(self.mp_context), **share)

    def _run_parallel(self, pendings: Sequence[_Pending], collect: bool
                      ) -> Tuple[List[TaskOutcome], int]:
        queue = deque(pendings)
        outcomes: List[TaskOutcome] = []
        retries = 0
        pool = self._new_pool(self.workers)
        in_flight: Dict[Future, _Pending] = {}
        deadlines: Dict[Future, float] = {}
        try:
            while queue or in_flight:
                broken = False
                while queue and len(in_flight) < self.queue_depth:
                    pending = queue.popleft()
                    try:
                        fut = pool.submit(_execute_payload, pending.payload,
                                          collect)
                    except BrokenProcessPool:
                        # The pool broke since the last wait: the task
                        # never ran, so it goes back uncharged.
                        queue.appendleft(pending)
                        broken = True
                        break
                    pending.attempts += 1
                    in_flight[fut] = pending
                    if self.task_timeout_s is not None:
                        deadlines[fut] = time.monotonic() + self.task_timeout_s
                if broken:
                    pool, retried = self._recover(pool, [], in_flight,
                                                  deadlines, outcomes, collect)
                    retries += retried
                    continue
                wait_s = None
                if deadlines:
                    wait_s = max(0.0, min(deadlines.values()) - time.monotonic())
                done, _ = wait(list(in_flight), timeout=wait_s,
                               return_when=FIRST_COMPLETED)
                if deadlines:
                    expired_now = time.monotonic()
                    # Expiry order is immaterial: outcomes are re-sorted
                    # by task id before the merge.
                    expired = [f for f, dl in deadlines.items()  # pet: noqa-PET104
                               if f in in_flight and not f.done()
                               and expired_now >= dl]
                    if expired:
                        pool, resubmit = self._expire_tasks(
                            expired, pool, in_flight, deadlines, outcomes)
                        queue.extend(resubmit)
                        continue
                crashed: List[_Pending] = []
                for fut in done:
                    pending = in_flight.pop(fut)
                    deadlines.pop(fut, None)
                    outcome = self._classify(fut, pending)
                    if outcome is None:
                        crashed.append(pending)
                    else:
                        outcomes.append(outcome)
                if crashed:
                    pool, retried = self._recover(pool, crashed, in_flight,
                                                  deadlines, outcomes, collect)
                    retries += retried
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return outcomes, retries

    def _recover(self, pool: ProcessPoolExecutor, crashed: List[_Pending],
                 in_flight: Dict[Future, _Pending],
                 deadlines: Dict[Future, float], outcomes: List[TaskOutcome],
                 collect: bool) -> Tuple[ProcessPoolExecutor, int]:
        """The pool is broken (a future reported a crash, or ``submit``
        refused): every other in-flight future is about to fail the same
        way.  Drain them, recycle the pool, and give each casualty — the
        ``crashed`` ones and any the drain finds — its isolated retry.
        Returns the fresh pool and the retries spent."""
        if in_flight:
            wait(list(in_flight))
            # Drain order is immaterial: outcomes are re-sorted by task
            # id before the merge.
            for fut, pending in in_flight.items():  # pet: noqa-PET104
                outcome = self._classify(fut, pending)
                if outcome is None:
                    crashed.append(pending)
                else:
                    outcomes.append(outcome)
            in_flight.clear()
        deadlines.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        retries = 0
        for pending in crashed:
            outcome, retried = self._retry_isolated(pending, collect)
            retries += retried
            outcomes.append(outcome)
        return self._new_pool(self.workers), retries

    def _expire_tasks(self, expired: Sequence[Future],
                      pool: ProcessPoolExecutor,
                      in_flight: Dict[Future, _Pending],
                      deadlines: Dict[Future, float],
                      outcomes: List[TaskOutcome]
                      ) -> Tuple[ProcessPoolExecutor, List[_Pending]]:
        """Kill hung tasks; return a fresh pool and the innocents to rerun.

        A worker stuck in C code or an uninterruptible loop cannot be
        cancelled through the futures API, so the whole pool's worker
        processes are terminated.  The expired tasks become ``Timeout``
        failures (no retry — a hang would just hang again); everything
        else in flight was collateral and is resubmitted to the new
        pool with its attempt count rolled back.
        """
        for fut in expired:
            pending = in_flight.pop(fut)
            deadlines.pop(fut, None)
            outcomes.append(TaskOutcome(
                task_id=pending.spec.task_id,
                failure=TaskFailure(
                    task_id=pending.spec.task_id,
                    error_type="Timeout",
                    message=(f"task exceeded task_timeout_s="
                             f"{self.task_timeout_s}"),
                    attempts=pending.attempts, worker_crashed=False),
                wall_time_s=float(self.task_timeout_s or 0.0),
                attempts=pending.attempts))
            get_tracer().event("engine.task_timeout",
                               task=pending.spec.task_id,
                               timeout_s=self.task_timeout_s)
        self._terminate_workers(pool)
        resubmit: List[_Pending] = []
        if in_flight:
            wait(list(in_flight))
            # Settle order is immaterial: timed-out slots are already
            # recorded and survivors re-enter the ordered merge.
            for fut, pending in in_flight.items():  # pet: noqa-PET104
                outcome = self._classify(fut, pending)
                if outcome is None:
                    # Collateral of our terminate, not a real crash.
                    pending.attempts -= 1
                    resubmit.append(pending)
                else:
                    outcomes.append(outcome)
            in_flight.clear()
        deadlines.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        return self._new_pool(self.workers), resubmit

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> None:
        """SIGTERM every live worker process of ``pool``."""
        # Signal order is immaterial: every worker gets the same SIGTERM.
        for proc in list((pool._processes or {}).values()):  # pet: noqa-PET104
            try:
                proc.terminate()
            except Exception:   # noqa: BLE001 — already dead is fine
                pass

    @staticmethod
    def _classify(fut: Future, pending: _Pending) -> Optional[TaskOutcome]:
        """Outcome for a settled future; ``None`` flags a worker crash."""
        try:
            task_id, value, wall, snap = fut.result()
        except (BrokenProcessPool, OSError):
            return None
        except Exception as exc:
            return TaskOutcome(
                task_id=pending.spec.task_id,
                failure=TaskFailure(
                    task_id=pending.spec.task_id,
                    error_type=type(exc).__name__, message=str(exc),
                    attempts=pending.attempts, worker_crashed=False,
                    traceback=traceback.format_exc()),
                attempts=pending.attempts)
        return TaskOutcome(task_id=task_id, value=value, wall_time_s=wall,
                           attempts=pending.attempts, metrics=snap)

    def _retry_isolated(self, pending: _Pending, collect: bool
                        ) -> Tuple[TaskOutcome, int]:
        """Re-run a crash casualty alone so a poison task cannot take
        innocent neighbours down with it again."""
        retried = 0
        while pending.attempts <= self.max_retries:
            retried = 1
            pending.attempts += 1
            solo = self._new_pool(1)
            try:
                fut = solo.submit(_execute_payload, pending.payload, collect)
                wait([fut])
                outcome = self._classify(fut, pending)
            finally:
                solo.shutdown(wait=False, cancel_futures=True)
            if outcome is not None:
                return outcome, retried
        return TaskOutcome(
            task_id=pending.spec.task_id,
            failure=TaskFailure(
                task_id=pending.spec.task_id,
                error_type="WorkerCrash",
                message="worker process died while executing this task",
                attempts=pending.attempts, worker_crashed=True),
            attempts=pending.attempts), retried


def run_tasks(specs: Sequence[TaskSpec], *, workers: int = 1,
              **engine_kwargs: Any) -> EngineReport:
    """Convenience: one-shot :class:`Engine` run."""
    return Engine(workers=workers, **engine_kwargs).run(specs)


def map_tasks(fn: Callable[[Any], Any], items: Iterable[Any], *,
              workers: int = 1, seed_root: Optional[int] = None,
              **engine_kwargs: Any) -> EngineReport:
    """Convenience: one-shot :meth:`Engine.map`."""
    return Engine(workers=workers, **engine_kwargs).map(fn, items,
                                                        seed_root=seed_root)
