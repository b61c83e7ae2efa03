"""Correctness tooling for the PET reproduction.

Two layers guard the simulator's credibility (the results are only as
good as the harness's determinism and unit discipline):

- :mod:`repro.devtools.lint` — an AST-based project linter with
  PET-specific rules (``PET001``..``PET006``): no wall-clock time or
  unseeded randomness in simulation code, no float equality on
  simulation time, unit-suffix discipline, provably non-negative
  ``schedule`` delays, no mutable default arguments.  Run it with
  ``python -m repro devtools lint`` (or the historical
  ``python -m repro.devtools.lint src/``).
- :mod:`repro.devtools.analyze` — a whole-program dataflow analyzer
  (``PET101``..``PET105``): RNG seed provenance, Engine
  process-boundary safety, iteration-order determinism on
  merge/export paths, zero-overhead telemetry discipline.  Run it with
  ``python -m repro devtools analyze``; CI gates on *new* findings
  against the checked-in ``ANALYZE_BASELINE.json``.
- :mod:`repro.devtools.sanitize` — a runtime :class:`SimSanitizer`
  that instruments the event engine, queues, markers, and switches to
  check invariants on every event (monotonic virtual time, queue
  bounds, packet conservation, RED probability in [0, 1],
  ``Kmin <= Kmax`` on every action application), raising a structured
  :class:`InvariantViolation` on failure.

See ``docs/DEVTOOLS.md`` for the full rule and invariant catalogue.
"""

from repro.devtools.lint import RULES, Violation, lint_paths, lint_source
from repro.devtools.sanitize import (InvariantViolation, SimSanitizer,
                                     disable, enable, is_enabled)

__all__ = [
    "RULES", "Violation", "lint_paths", "lint_source",
    "InvariantViolation", "SimSanitizer", "enable", "disable", "is_enabled",
]

# repro.devtools.analyze (PET101-105) is imported lazily by the CLI so
# plain sanitizer users never pay the whole-program model import.
