"""Profiling hooks — opt-in cProfile wrapper and hot-path attribution.

:func:`hot_path_attribution` turns the tracer's span timings into a
per-stage breakdown: how much of a run's wall time went to
``net.advance`` vs ``controller.decide`` vs ``ppo.update``
(``benchmarks/perf`` reports the same spans as its per-layer metrics).

:func:`profiled` is a plain cProfile context for ad-hoc deep dives::

    with profiled() as prof:
        run_control_loop(...)
    print(profile_table(prof))
"""

from __future__ import annotations

import cProfile
import io
import pstats
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs.trace import Tracer, get_tracer

__all__ = ["profiled", "profile_table", "hot_path_attribution"]

#: span names whose totals constitute the hot-path breakdown.
HOT_PATH_SPANS = ("loop.tick", "net.advance", "net.queue_stats",
                  "controller.decide", "pet.ingest", "pet.act",
                  "ppo.update", "env.step", "scenario.pretrain",
                  "scenario.measure", "engine.run")


@contextmanager
def profiled() -> Iterator[cProfile.Profile]:
    """cProfile the enclosed block; yields the (running) profiler."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        yield prof
    finally:
        prof.disable()


def profile_table(prof: cProfile.Profile, *, limit: int = 25,
                  sort: str = "cumulative") -> str:
    """Render a profiler's stats as the familiar pstats text table."""
    out = io.StringIO()
    pstats.Stats(prof, stream=out).strip_dirs().sort_stats(sort).print_stats(
        limit)
    return out.getvalue()


def hot_path_attribution(tracer: Optional[Tracer] = None
                         ) -> Dict[str, Dict[str, float]]:
    """Per-stage totals (seconds + span counts) from recorded spans.

    Returns ``{span_name: {"total_s": ..., "count": ..., "mean_s": ...}}``
    for every span name that actually appeared.
    """
    tr = tracer if tracer is not None else get_tracer()
    out: Dict[str, Dict[str, float]] = {}
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for sp in tr.spans:
        if sp.kind != "span":
            continue
        totals[sp.name] = totals.get(sp.name, 0.0) + sp.duration_s
        counts[sp.name] = counts.get(sp.name, 0) + 1
    for name in sorted(totals):
        n = counts[name]
        out[name] = {"total_s": round(totals[name], 6), "count": n,
                     "mean_s": round(totals[name] / n, 9) if n else 0.0}
    return out
