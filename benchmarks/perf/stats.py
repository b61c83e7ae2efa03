"""Small statistics helpers shared by the harness, its report and tests."""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, Sequence

import numpy as np

#: a percentile is reported only with at least this many samples beyond it
#: (choosing-metrics guide, section 1).
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))


def percentile(samples: Sequence[float], q: float, *,
               strict: bool = True) -> float:
    """The ``q``-th percentile of ``samples``.

    With ``strict`` the call raises unless at least :data:`MIN_BEYOND`
    samples lie beyond the percentile, so a tail that three samples
    decide is never printed as if it were measured.  Smoke runs, which
    are too short for any tail, pass ``strict=False``.
    """
    if len(samples) == 0:
        raise ValueError("no samples")
    if strict and q > 50.0 and samples_beyond(len(samples), q) < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(samples)} samples has "
            f"{samples_beyond(len(samples), q)} beyond it; need {MIN_BEYOND}")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives
    them (the driver's definition); one value is its own quartiles."""
    vals = [float(v) for v in values]
    if len(vals) == 1:
        return {"q1": vals[0], "median": vals[0], "q3": vals[0]}
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"q1": q1, "median": med, "q3": q3}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q = quartiles(values)
    return (q["q3"] - q["q1"]) / abs(q["median"]) if q["median"] else 0.0


def calibrate() -> float:
    """Milliseconds a fixed NumPy + Python-loop kernel takes (best of 5).

    The noise sentinel: the kernel never changes, so a reading well
    above the session's best means the box, not the program, got slower.
    It allocates nothing inside the timed part — fresh NumPy temporaries
    would time the allocator, whose state differs between workloads.
    """
    a = np.arange(200_000, dtype=np.float64)
    b = np.empty_like(a)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(20):
            np.multiply(a, 1.0001, out=b)
            np.sqrt(b, out=b)
            b.sum()
        x = 0
        for i in range(100_000):
            x += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best * 1e3
