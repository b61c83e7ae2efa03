"""Result analysis and experiment harness.

- :mod:`repro.analysis.fct` — FCT statistics: average / 99th-percentile
  normalized FCT (slowdown), split overall / mice / elephant, exactly
  the quantities of the paper's Figs. 4-7 and 9.
- :mod:`repro.analysis.queues` — queue-length statistics (Table I) and
  per-packet latency summaries (Fig. 8).
- :mod:`repro.analysis.experiments` — scenario assembly: build a loaded
  simulator, attach a named scheme (pet / acc / secn1 / secn2), run the
  control loop, collect results.  Every benchmark is a thin wrapper over
  this module.
- :mod:`repro.analysis.report` — plain-text table rendering for the
  benchmark output.
- :mod:`repro.analysis.resilience` — fault-log summaries and recovery
  times for chaos runs (``python -m repro chaos``).

This package re-exports only what the experiment runner loads; import
the report, convergence and resilience helpers from their own modules.
"""

from repro.analysis.fct import FCTStats, fct_statistics, normalized_fcts
from repro.analysis.queues import QueueLengthStats, queue_length_statistics, \
    latency_statistics
from repro.analysis.experiments import (ExperimentResult, ScenarioConfig,
                                        build_scheme, run_scenario,
                                        run_scenario_grid)

__all__ = [
    "FCTStats", "fct_statistics", "normalized_fcts",
    "QueueLengthStats", "queue_length_statistics", "latency_statistics",
    "ExperimentResult", "ScenarioConfig", "build_scheme", "run_scenario",
    "run_scenario_grid",
]
