"""Fault-log analysis: summaries and recovery metrics.

Consumes the structured :class:`repro.resilience.log.FaultLog` events
that a run with faults reports (``ExperimentResult.faults``,
:attr:`repro.core.training.LoopResult.faults`; duck-typed: anything
with ``.time`` / ``.kind`` / ``.switch`` works, so this module imports
nothing from :mod:`repro.resilience`).

The headline quantity mirrors the paper's §5.5.5 robustness reading:
how long after a disturbance the utilization/FCT trace returns to its
pre-fault level (:func:`recovery_after`, built on
:func:`repro.analysis.convergence.recovery_time`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.convergence import recovery_time

__all__ = ["fault_summary", "first_fault_time", "recovery_after",
           "quarantine_spans"]

#: fault kinds that disturb the *network* (and should show in traces).
DISRUPTIVE_KINDS = ("link-down", "degrade-begin", "agent-crash")


def fault_summary(events: Iterable) -> Dict[str, int]:
    """Event counts per kind, sorted by kind for stable reporting."""
    counts: Dict[str, int] = {}
    for e in events:
        counts[e.kind] = counts.get(e.kind, 0) + 1
    return dict(sorted(counts.items()))


def first_fault_time(events: Iterable,
                     kinds: Sequence[str] = DISRUPTIVE_KINDS
                     ) -> Optional[float]:
    """Virtual time of the earliest disruptive event, if any."""
    times = [e.time for e in events if e.kind in kinds]
    return min(times) if times else None


def recovery_after(trace: Sequence[float], fault_time: float,
                   delta_t: float, *, band: float = 0.10,
                   window: int = 5) -> Optional[int]:
    """Intervals until the smoothed trace returns to its pre-fault level.

    ``fault_time`` (virtual seconds) is mapped onto the trace via
    ``delta_t``; returns ``None`` when the trace never recovers or the
    fault precedes any usable baseline.
    """
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    idx = int(round(fault_time / delta_t))
    if not 0 < idx < len(trace):
        return None
    return recovery_time(trace, idx, band=band, window=window,
                         baseline_window=max(idx, 1))


def quarantine_spans(events: Iterable) -> List[Dict]:
    """Pair up ``quarantine``/``reinstate`` events per switch.

    Returns one record per completed quarantine: switch, start/end time,
    and the strike count at quarantine time.  An unreleased quarantine
    (run ended first) has ``end=None``.
    """
    open_spans: Dict[str, Dict] = {}
    out: List[Dict] = []
    for e in sorted(events, key=lambda e: (e.time, getattr(e, "seq", 0))):
        if e.kind == "quarantine" and e.switch is not None:
            open_spans[e.switch] = {"switch": e.switch, "start": e.time,
                                    "end": None,
                                    "strikes": e.detail.get("strikes")}
        elif e.kind == "reinstate" and e.switch in open_spans:
            span = open_spans.pop(e.switch)
            span["end"] = e.time
            out.append(span)
    out.extend(open_spans.values())
    return sorted(out, key=lambda r: (r["start"], r["switch"]))
