"""Whole-program static analysis — the PET100 rule series.

Where :mod:`repro.devtools.lint` checks one AST node at a time, this
package parses the *entire* ``src/repro`` tree into a symbol table and
call graph (:mod:`repro.devtools.analyze.model`) and runs
interprocedural dataflow rules over it
(:mod:`repro.devtools.analyze.rules`):

========  ==============================================================
Rule      What it enforces
========  ==============================================================
PET101    RNG provenance — every ``numpy.random.Generator`` must flow
          from ``repro.parallel.seeding`` (or an explicit seed literal)
          to its use site; ambient/unseeded generators must never reach
          simulator or training code, directly or through a call chain.
PET102    process-boundary safety — callables submitted to the rollout
          :class:`~repro.parallel.engine.Engine` must be top-level and
          closure-free, and code reachable from a task body must not
          capture module-global mutable state or spawn new closures
          into program functions (pickling + determinism hazard).
PET104    iteration-order nondeterminism — dict/set iteration inside
          functions reachable from Engine merge, fingerprint, or obs
          export paths must be order-stabilized (``sorted(...)``).
PET105    zero-overhead telemetry — no eager computation (string
          formatting, comprehensions, non-trivial calls) in arguments
          to obs mutators outside an enabled-telemetry guard.
========  ==============================================================

Findings honour the same ``# pet: noqa`` / ``# pet: noqa-PET104``
escape hatch as the linter, and are additionally filtered through a
checked-in baseline file (``ANALYZE_BASELINE.json``) so pre-existing
accepted findings do not block CI — only *new* findings fail the gate.

Front door::

    python -m repro devtools analyze [--format text|json|sarif]
    python -m repro devtools analyze --baseline ANALYZE_BASELINE.json

See docs/DEVTOOLS.md for the rule catalogue and the
"writing a new dataflow rule" guide.
"""

from repro.devtools.analyze.model import (CallSite, ClassInfo, FunctionInfo,
                                          ModuleInfo, Program, build_program)
from repro.devtools.analyze.report import (Finding, load_baseline,
                                           save_baseline, split_by_baseline,
                                           to_json, to_sarif)
from repro.devtools.analyze.rules import RULES, analyze_program, analyze_paths

__all__ = [
    "RULES", "Finding", "Program", "ModuleInfo", "FunctionInfo", "ClassInfo",
    "CallSite", "build_program", "analyze_program", "analyze_paths",
    "load_baseline", "save_baseline", "split_by_baseline", "to_json",
    "to_sarif",
]
