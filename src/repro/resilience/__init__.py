"""Chaos fault injection + graceful degradation + crash-safe training.

The paper's robustness evaluation (§5.5.5, Fig. 7) only disconnects
links; a production ECN tuner also has to survive crashing agents,
corrupted telemetry, and damaged checkpoints.  This subsystem makes
those first-class, in three layers:

- :mod:`repro.resilience.faults` — a composable, seeded
  :class:`FaultPlan` executed by a :class:`ChaosInjector`: link
  failures/flaps, capacity degradation, telemetry blackout, observation
  corruption (NaN/inf/negative), agent-crash injection, and
  dropped/delayed ECN application — deterministic under a fixed seed.
- :mod:`repro.resilience.guard` — :class:`ResilientController`, a
  :class:`~repro.core.controller.Controller`-protocol wrapper that
  sanitizes telemetry, quarantines a crashing agent onto the static
  safe ECN config, and reinstates it after probation with exponential
  backoff — one bad agent never aborts the loop.
- :mod:`repro.rl.checkpoint` (format v2) — atomic writes, content
  checksums, corruption detection, and the rotating
  :class:`~repro.rl.checkpoint.CheckpointManager` that resumes from
  the newest uncorrupted checkpoint.

Everything emits a structured :class:`~repro.resilience.log.FaultLog`
consumed by :mod:`repro.analysis.resilience`; ``python -m repro chaos``
runs the Fig. 7 scenario plus the extended fault matrix end to end.
See ``docs/RESILIENCE.md``.

The chaos side is imported from :mod:`repro.resilience.faults`; this
package re-exports only the guard and the log the serve plane runs.
"""

from repro.resilience.guard import (GuardConfig, ResilientController,
                                    SwitchHealth)
from repro.resilience.log import FaultEvent, FaultLog

__all__ = [
    "GuardConfig", "ResilientController", "SwitchHealth",
    "FaultEvent", "FaultLog",
]
