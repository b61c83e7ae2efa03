"""The parallel rollout engine's contracts (docs/PARALLEL.md).

- serial (workers=1) and parallel (workers=N) runs return identical,
  task-id-ordered results;
- per-task seeds derive from ``seed_root -> spawn_key(task_id)`` and
  are installed as the task-seed context in both paths;
- ordinary exceptions become structured :class:`TaskFailure` records
  (no retry — they are deterministic);
- a task whose worker process *dies* is retried once in isolation, then
  surfaced as a structured failure — never a hung pool;
- unpicklable specs fail fast at submission;
- a task hung past ``task_timeout_s`` is killed and recorded as a
  structured ``Timeout`` failure — ``run()`` never blocks forever;
- :class:`CheckpointManager` stays safe under concurrent writers.
"""

import os
import pickle
import time

import numpy as np
import pytest

from repro.parallel import (Engine, TaskFailedError, TaskSpec,
                            current_task_seed, derive_rng, derive_seed,
                            fallback_rng, map_tasks, run_tasks, task_seed)

WORKERS = 2


# --------------------------------------------------------- task bodies
# (module-level: they must pickle into worker processes)
def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _seed_probe(_x):
    return current_task_seed()


def _rng_draw(n):
    return fallback_rng(0).random(n)


def _crash_once(sentinel):
    """Dies hard on the first attempt, succeeds on the retry."""
    if os.path.exists(sentinel):
        return "recovered"
    with open(sentinel, "w"):
        pass
    os._exit(13)


def _crash_always(_x):
    os._exit(13)


def _hang(_x):
    time.sleep(600)


def _nap(x):
    time.sleep(0.02)
    return x


def _sleep_return(s):
    time.sleep(s)
    return s


def _hang_once(sentinel):
    """Sleeps forever on its first run (so a pool kill catches it in
    flight), returns immediately on the resubmission."""
    if os.path.exists(sentinel):
        return "resubmitted"
    with open(sentinel, "w"):
        pass
    time.sleep(600)


def _collateral_then_crash_once(mark_dir):
    """Attempt 1: killed as collateral of another task's timeout (sleeps
    forever).  Attempt 2 (the resubmission): genuine worker crash.
    Attempt 3 (the isolated crash-retry): recovers."""
    n = len(os.listdir(mark_dir))
    with open(os.path.join(mark_dir, f"mark{n}"), "w"):
        pass
    if n == 0:
        time.sleep(600)
    if n == 1:
        os._exit(13)
    return "recovered"


def _ckpt_write(args):
    directory, step = args
    from repro.rl.checkpoint import CheckpointManager
    CheckpointManager(directory, keep=3).save(
        {"w": np.full(4, float(step))}, step)
    return step


# --------------------------------------------------------- core contracts
class TestOrderedResults:
    def test_serial_matches_parallel(self):
        items = list(range(8))
        serial = map_tasks(_square, items, workers=1).values()
        parallel = map_tasks(_square, items, workers=WORKERS).values()
        assert serial == parallel == [x * x for x in items]

    def test_results_in_task_id_order_regardless_of_submission(self):
        specs = [TaskSpec(task_id=i, fn=_square, args=(i,))
                 for i in reversed(range(6))]
        report = run_tasks(specs, workers=WORKERS)
        assert [o.task_id for o in report.outcomes] == list(range(6))
        assert report.values() == [i * i for i in range(6)]

    def test_report_bookkeeping(self):
        report = map_tasks(_square, [1, 2, 3], workers=1)
        assert report.n_tasks == 3
        assert report.workers == 1
        assert report.retries == 0
        assert len(report.task_seconds()) == 3
        assert report.tasks_per_second > 0

    def test_duplicate_task_ids_rejected(self):
        specs = [TaskSpec(task_id=0, fn=_square, args=(1,)),
                 TaskSpec(task_id=0, fn=_square, args=(2,))]
        with pytest.raises(ValueError, match="duplicate task_id"):
            run_tasks(specs)

    def test_negative_task_id_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            TaskSpec(task_id=-1, fn=_square)

    def test_unpicklable_spec_fails_fast(self):
        spec = TaskSpec(task_id=0, fn=lambda x: x, args=(1,))
        with pytest.raises((pickle.PicklingError, AttributeError)):
            run_tasks([spec], workers=WORKERS)

    def test_bad_engine_params_rejected(self):
        with pytest.raises(ValueError):
            Engine(workers=0)
        with pytest.raises(ValueError):
            Engine(workers=2, queue_depth=0)
        with pytest.raises(ValueError):
            Engine(workers=2, max_retries=-1)


# --------------------------------------------------------- seeding
class TestSeeding:
    def test_derive_seed_is_stable_and_decorrelated(self):
        assert derive_seed(0, 3) == derive_seed(0, 3)
        assert derive_seed(0, 3) != derive_seed(0, 4)
        assert derive_seed(0, 3) != derive_seed(1, 3)

    def test_derive_rng_streams_differ_per_task(self):
        a = derive_rng(0, 0).random(8)
        b = derive_rng(0, 1).random(8)
        assert not np.array_equal(a, b)

    def test_task_seed_context_installs_and_restores(self):
        assert current_task_seed() is None
        with task_seed(5):
            assert current_task_seed() == 5
            with task_seed(9):
                assert current_task_seed() == 9
            assert current_task_seed() == 5
        assert current_task_seed() is None

    def test_fallback_rng_without_context_matches_legacy(self):
        assert np.array_equal(fallback_rng(3).random(8),
                              np.random.default_rng(3).random(8))

    def test_fallback_rng_inside_context_derives_from_task_seed(self):
        with task_seed(11):
            inside = fallback_rng(0).random(8)
        assert not np.array_equal(inside, np.random.default_rng(0).random(8))

    def test_engine_installs_seed_in_both_paths(self):
        for workers in (1, WORKERS):
            report = map_tasks(_seed_probe, [0, 1, 2], workers=workers,
                               seed_root=7)
            assert report.values() == [derive_seed(7, i) for i in range(3)]

    def test_worker_streams_decorrelated_and_reproducible(self):
        s1 = map_tasks(_rng_draw, [6, 6, 6], workers=1, seed_root=7).values()
        sN = map_tasks(_rng_draw, [6, 6, 6], workers=WORKERS,
                       seed_root=7).values()
        for a, b in zip(s1, sN):
            assert np.array_equal(a, b)       # serial == parallel exactly
        # the old bug: every forked worker drew the same default_rng(0) stream
        assert not np.array_equal(s1[0], s1[1])
        other = map_tasks(_rng_draw, [6, 6, 6], workers=1, seed_root=8).values()
        assert not np.array_equal(s1[0], other[0])


# --------------------------------------------------------- failures
class TestFailures:
    @pytest.mark.parametrize("workers", [1, WORKERS])
    def test_exception_becomes_structured_failure(self, workers):
        specs = [TaskSpec(task_id=0, fn=_square, args=(3,)),
                 TaskSpec(task_id=1, fn=_boom, args=("x",))]
        report = run_tasks(specs, workers=workers)
        assert report.outcomes[0].ok
        failure = report.outcomes[1].failure
        assert failure is not None
        assert failure.error_type == "ValueError"
        assert "boom x" in failure.message
        assert not failure.worker_crashed
        assert failure.attempts == 1          # deterministic: never retried
        assert "boom" in failure.traceback

    def test_strict_values_raises_with_all_failures(self):
        specs = [TaskSpec(task_id=i, fn=_boom, args=(i,)) for i in range(3)]
        report = run_tasks(specs, workers=1)
        with pytest.raises(TaskFailedError) as err:
            report.values()
        assert len(err.value.failures) == 3
        assert report.values(strict=False) == [None, None, None]


class TestCrashRecovery:
    def test_crashed_worker_task_retried_once_and_recovers(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        specs = [TaskSpec(task_id=0, fn=_crash_once, args=(sentinel,)),
                 TaskSpec(task_id=1, fn=_square, args=(5,)),
                 TaskSpec(task_id=2, fn=_square, args=(6,))]
        report = run_tasks(specs, workers=WORKERS)
        assert report.values() == ["recovered", 25, 36]
        assert report.retries >= 1
        assert report.outcomes[0].attempts == 2

    def test_repeated_crash_becomes_structured_failure(self):
        specs = [TaskSpec(task_id=0, fn=_crash_always, args=(None,)),
                 TaskSpec(task_id=1, fn=_square, args=(4,))]
        report = run_tasks(specs, workers=WORKERS)
        failure = report.outcomes[0].failure
        assert failure is not None
        assert failure.worker_crashed
        assert failure.error_type == "WorkerCrash"
        assert failure.attempts == 2          # initial + one isolated retry
        assert report.outcomes[1].ok and report.outcomes[1].value == 16

    def test_crash_with_retries_disabled_fails_immediately(self):
        specs = [TaskSpec(task_id=0, fn=_crash_always, args=(None,))]
        report = run_tasks(specs, workers=WORKERS, max_retries=0)
        failure = report.outcomes[0].failure
        assert failure is not None and failure.worker_crashed
        assert failure.attempts == 1
        assert report.retries == 0


# --------------------------------------------------------- task timeouts
class TestTaskTimeout:
    def test_hung_task_becomes_timeout_failure_batch_completes(self):
        specs = [TaskSpec(task_id=0, fn=_hang, args=(None,)),
                 TaskSpec(task_id=1, fn=_square, args=(3,)),
                 TaskSpec(task_id=2, fn=_square, args=(4,))]
        started = time.monotonic()
        report = Engine(workers=WORKERS, task_timeout_s=1.0).run(specs)
        assert time.monotonic() - started < 60       # no eternal block
        failure = report.outcomes[0].failure
        assert failure is not None
        assert failure.error_type == "Timeout"
        assert not failure.worker_crashed
        assert "task_timeout_s" in failure.message
        assert report.outcomes[1].value == 9
        assert report.outcomes[2].value == 16

    def test_timeout_is_never_retried(self):
        specs = [TaskSpec(task_id=0, fn=_hang, args=(None,))]
        report = Engine(workers=WORKERS, task_timeout_s=0.5,
                        max_retries=5).run(specs)
        failure = report.outcomes[0].failure
        assert failure is not None and failure.error_type == "Timeout"
        assert failure.attempts == 1
        assert report.retries == 0

    def test_innocent_inflight_tasks_survive_the_kill(self):
        # One hang plus enough quick tasks that some are in flight on
        # the pool when its workers are terminated; they must all still
        # produce values via resubmission, with no retry budget spent.
        specs = [TaskSpec(task_id=0, fn=_hang, args=(None,))] + [
            TaskSpec(task_id=i, fn=_nap, args=(i,)) for i in range(1, 6)]
        report = Engine(workers=WORKERS, task_timeout_s=1.0).run(specs)
        assert report.outcomes[0].failure is not None
        for o in report.outcomes[1:]:
            assert o.ok and o.value == o.task_id

    def test_fast_tasks_unaffected_by_generous_timeout(self):
        report = Engine(workers=WORKERS, task_timeout_s=30.0).map(
            _square, range(6))
        assert report.values() == [x * x for x in range(6)]
        assert not report.failures

    def test_serial_path_documented_no_enforcement(self):
        report = Engine(workers=1, task_timeout_s=0.005).map(_nap, [7])
        assert report.values() == [7]        # in-process: cannot preempt

    def test_validation(self):
        with pytest.raises(ValueError):
            Engine(workers=2, task_timeout_s=0.0)


class TestTimeoutRetryInteraction:
    """Negative paths where ``task_timeout_s`` meets the retry budget.

    When a hung task's deadline expires the whole pool's workers are
    terminated, so tasks that merely shared the pool die too.  Those
    innocents are resubmitted with their attempt count rolled back —
    the kill must neither surface as their failure nor charge their
    crash-retry budget.  Both tests stage the same timeline: task 0
    hangs, task 1 delays task 2's submission so task 2's deadline lands
    *after* task 0's, and task 2 is mid-flight (sleeping forever on its
    first attempt only) when the pool is killed at task 0's deadline.
    """

    def _specs(self, fn, arg):
        return [TaskSpec(task_id=0, fn=_hang, args=(None,)),
                TaskSpec(task_id=1, fn=_sleep_return, args=(0.3,)),
                TaskSpec(task_id=2, fn=fn, args=(arg,))]

    def test_innocent_timeout_then_success_on_resubmission(self, tmp_path):
        sentinel = str(tmp_path / "hang_once")
        report = Engine(workers=2, queue_depth=2, task_timeout_s=1.5).run(
            self._specs(_hang_once, sentinel))
        hung = report.outcomes[0].failure
        assert hung is not None and hung.error_type == "Timeout"
        assert report.outcomes[1].ok and report.outcomes[1].value == 0.3
        innocent = report.outcomes[2]
        assert innocent.ok and innocent.value == "resubmitted"
        # The killed first attempt was rolled back: the successful rerun
        # counts as attempt 1 and no crash-retry was spent on it.
        assert innocent.attempts == 1
        assert report.retries == 0

    def test_collateral_kill_preserves_crash_retry_budget(self, tmp_path):
        # After the collateral kill (attempt rolled back), task 2
        # genuinely crashes once on resubmission.  With max_retries=1
        # it may burn exactly one isolated retry — which only exists if
        # the kill did NOT count as an attempt.
        mark_dir = tmp_path / "marks"
        mark_dir.mkdir()
        report = Engine(workers=2, queue_depth=2, task_timeout_s=1.5,
                        max_retries=1).run(
            self._specs(_collateral_then_crash_once, str(mark_dir)))
        hung = report.outcomes[0].failure
        assert hung is not None and hung.error_type == "Timeout"
        survivor = report.outcomes[2]
        assert survivor.ok and survivor.value == "recovered"
        assert survivor.attempts == 2      # crash attempt + isolated retry
        assert report.retries == 1
        assert len(os.listdir(mark_dir)) == 3


# --------------------------------------------------------- checkpoints
class TestConcurrentCheckpointWriters:
    def test_parallel_writers_same_directory(self, tmp_path):
        from repro.rl.checkpoint import CheckpointManager
        directory = str(tmp_path / "ckpts")
        steps = list(range(8))
        report = map_tasks(_ckpt_write, [(directory, s) for s in steps],
                           workers=4)
        assert report.values() == steps
        mgr = CheckpointManager(directory, keep=3)
        state, step = mgr.load_latest()
        assert step == max(steps)
        assert np.array_equal(state["w"], np.full(4, float(max(steps))))
        leftovers = [n for n in os.listdir(directory) if n.endswith(".tmp")]
        assert leftovers == []
