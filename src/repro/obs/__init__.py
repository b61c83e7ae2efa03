"""repro.obs — unified observability: metrics, traces, exporters, profiling.

One instrumentation API threads through every layer of the repo
(control loop, PET pipeline, both simulators, the PPO learners, the
parallel engine, the resilience guard).  It has two halves sharing one
on/off switch:

- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labelled
  counters/gauges/histograms;
- :mod:`repro.obs.trace` — a :class:`Tracer` of per-interval spans and
  point events (fault events ride the same bus via
  :class:`repro.resilience.log.FaultLog`).

The exporters (:mod:`repro.obs.export`) and the profiler
(:mod:`repro.obs.profile`) are imported from their own modules; this
package loads only what the instrumented layers run.

Disabled (the default) both are null objects: mutators are no-ops,
``bool(...)`` is False (the guard hot paths use to skip telemetry-only
work), and instrumented runs are bit-identical to uninstrumented ones —
the fingerprint overhead guard in ``tests/test_obs_integration.py``.

Usage::

    from repro import obs
    from repro.obs.export import write_jsonl
    registry, tracer = obs.enable()
    ...  # run anything
    write_jsonl("trace.jsonl", tracer, registry)
    obs.disable()

or end-to-end from the shell: ``python -m repro trace --scenario
websearch --seed 0`` (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.obs import metrics, trace
from repro.obs.metrics import MetricsRegistry, NullRegistry, get_registry
from repro.obs.trace import NullTracer, Span, Tracer, get_tracer

__all__ = ["MetricsRegistry", "NullRegistry", "Tracer", "NullTracer",
           "Span", "get_registry", "get_tracer", "enable", "disable",
           "enabled", "telemetry", "metrics", "trace"]


def enable(registry: Optional[MetricsRegistry] = None,
           tracer: Optional[Tracer] = None
           ) -> Tuple[MetricsRegistry, Tracer]:
    """Switch on both metrics and span collection; returns the sinks."""
    return metrics.enable(registry), trace.enable(tracer)


def disable() -> None:
    """Restore the null (no-op) registry and tracer."""
    metrics.disable()
    trace.disable()


def enabled() -> bool:
    """True when either half of the telemetry bus is collecting."""
    return metrics.enabled() or trace.enabled()


@contextmanager
def telemetry(registry: Optional[MetricsRegistry] = None,
              tracer: Optional[Tracer] = None
              ) -> Iterator[Tuple[MetricsRegistry, Tracer]]:
    """Scoped enable/disable — guarantees the null defaults come back."""
    sinks = enable(registry, tracer)
    try:
        yield sinks
    finally:
        disable()
