"""Correctness tooling for the PET reproduction.

Two layers guard the simulator's credibility (the results are only as
good as the harness's determinism and unit discipline):

- static analysis — one rule engine over one parsed program model
  (:mod:`repro.devtools.model`, :mod:`repro.devtools.rules`): per-module
  rules ``PET001``–``PET007`` (no wall-clock time or unseeded randomness
  in simulation code, no float equality on simulation time, unit-suffix
  discipline, provably non-negative ``schedule`` delays, no mutable
  default arguments, no builtin ``hash()`` in sim state) and
  interprocedural rules ``PET101``/``PET102``/``PET104``/``PET105`` (RNG
  seed provenance, Engine process-boundary safety, iteration-order
  determinism on merge/export paths, zero-overhead telemetry).  Run it
  with ``python -m repro devtools`` (or ``python -m repro.devtools``);
  CI gates on *new* findings against the checked-in
  ``ANALYZE_BASELINE.json``.
- :mod:`repro.devtools.sanitize` — a runtime :class:`SimSanitizer`
  that instruments the event engine, queues, markers, and switches to
  check invariants on every event (monotonic virtual time, queue
  bounds, packet conservation, RED probability in [0, 1],
  ``Kmin <= Kmax`` on every action application), raising a structured
  :class:`InvariantViolation` on failure.

Only the sanitizer is imported here: the conftest, the CLI and every
benchmark child import it, and none of them should pay for the static
analyzer.  See ``docs/DEVTOOLS.md`` for the rule and invariant catalogue.
"""

from repro.devtools.sanitize import (InvariantViolation, SimSanitizer,
                                     disable, enable, is_enabled)

__all__ = ["InvariantViolation", "SimSanitizer", "enable", "disable",
           "is_enabled"]
