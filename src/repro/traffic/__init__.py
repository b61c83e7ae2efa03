"""Workload generation (Alibaba traffic-generator stand-in).

- :mod:`repro.traffic.cdf` — inverse-transform sampling from piecewise-
  linear flow-size CDFs.
- :mod:`repro.traffic.workloads` — the published Web Search (DCTCP) and
  Data Mining (VL2) distributions the paper trains and evaluates on
  (paper Fig. 3).
- :mod:`repro.traffic.generator` — Poisson open-loop flow arrivals at a
  target fraction of fabric load.
- :mod:`repro.traffic.incast` — many-to-one partition–aggregate bursts
  (the paper's extension of the traffic generator).
- :mod:`repro.traffic.patterns` — timed workload switching schedules
  (paper Fig. 6 convergence experiment).
- :mod:`repro.traffic.classify` — mice/elephant classification and ratio
  computation.
- :mod:`repro.traffic.trace` — flow-trace save/load.

``classify`` and ``trace`` are imported from their own modules; this
package re-exports only the generators.
"""

from repro.traffic.cdf import PiecewiseCDF
from repro.traffic.workloads import (WEB_SEARCH, DATA_MINING, workload_by_name,
                                     WORKLOADS)
from repro.traffic.generator import PoissonTrafficGenerator, TrafficConfig
from repro.traffic.incast import IncastGenerator, IncastConfig
from repro.traffic.patterns import PatternSchedule, PatternSegment

__all__ = [
    "PiecewiseCDF", "WEB_SEARCH", "DATA_MINING", "WORKLOADS",
    "workload_by_name",
    "PoissonTrafficGenerator", "TrafficConfig",
    "IncastGenerator", "IncastConfig",
    "PatternSchedule", "PatternSegment",
]
