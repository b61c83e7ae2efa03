"""Parallel rollout execution (docs/PARALLEL.md).

- :mod:`repro.parallel.seeding` — ``seed_root -> spawn_key(task_id)``
  derivation and the per-process task-seed context.
- :mod:`repro.parallel.engine` — the bounded process-pool engine with
  pickled run-specs, ordered merging, and crash recovery.
"""

from repro.parallel.engine import (Engine, EngineReport, TaskFailedError,
                                   TaskFailure, TaskOutcome, TaskSpec,
                                   map_tasks, run_tasks, usable_cores)
from repro.parallel.seeding import (current_task_seed, derive_rng,
                                    derive_seed, fallback_rng,
                                    spawn_seed_sequence, task_seed)

__all__ = [
    "Engine", "EngineReport", "TaskSpec", "TaskOutcome", "TaskFailure",
    "TaskFailedError", "run_tasks", "map_tasks", "usable_cores",
    "derive_seed", "derive_rng", "spawn_seed_sequence",
    "task_seed", "current_task_seed", "fallback_rng",
]
