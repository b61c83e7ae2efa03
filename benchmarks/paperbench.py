"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper (see
DESIGN.md §4): it runs the relevant scenario for every compared scheme,
prints the same rows/series the paper plots, and asserts the *shape* of
the result (who wins, roughly by how much) rather than absolute numbers
— our substrate is a scaled fluid-model simulator, not the authors'
ns-3 testbed.

A figure is a dict of named ``(scheme, ScenarioConfig)`` jobs run as one
:func:`repro.analysis.experiments.run_scenario_grid`; offline
pre-trainings are cached in-process, so the suite does not retrain one
model per figure.
"""

import os
import sys
from typing import Dict, Hashable, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.experiments import (ExperimentResult,  # noqa: E402
                                        ScenarioConfig, run_scenario_grid)
from repro.netsim.fluid import FluidConfig  # noqa: E402

#: the paper sweeps 30-80% load; three points span the range
LOADS = (0.3, 0.6, 0.8)
#: all schemes of the paper's §5.4 comparison
ALL_SCHEMES = ("pet", "acc", "secn1", "secn2")


def bench_fabric() -> FluidConfig:
    """The benchmark fabric: a 64-host leaf-spine at 10/40 Gbps.

    Proportionally identical to the paper's 288-host 25/100 Gbps fabric
    (4:1 fabric:host rate, same 2-tier shape), scaled down so the full
    suite runs in minutes (DESIGN.md §2).
    """
    return FluidConfig(n_spine=2, n_leaf=4, hosts_per_leaf=8,
                       host_rate_bps=10e9, spine_rate_bps=40e9)


def standard_scenario(workload: str = "websearch", load: float = 0.6,
                      **overrides) -> ScenarioConfig:
    overrides.setdefault("duration", 0.12)
    overrides.setdefault("pretrain_intervals", 1500)
    overrides.setdefault("seed", 7)
    overrides.setdefault("fluid", bench_fabric())
    return ScenarioConfig(workload=workload, load=load, **overrides)


def run_jobs(jobs: Dict[Hashable, Tuple[str, ScenarioConfig]]
             ) -> Dict[Hashable, ExperimentResult]:
    """Run a figure's named jobs as one grid; results keep the names."""
    return dict(zip(jobs, run_scenario_grid(list(jobs.values()))))


def print_banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
