"""Parameter sweeps over (scheme × load × workload), optionally parallel.

The evaluation grids of the paper (Figs. 4, 5, 8) are embarrassingly
parallel: every cell is an independent simulation.  ``run_sweep``
executes a grid through
:func:`repro.analysis.experiments.run_scenario_grid`: in-process
(sharing the pretraining cache, compatible fluid cells stepping as one
batch) or across worker processes through the
:class:`repro.parallel.Engine` (each worker pays its own training, but
wall-clock scales with cores — the right trade for wide grids on
many-core machines).  Cells always come back in grid order with values
identical either way, and a cell that dies in a worker is retried once,
then surfaced as a structured :class:`repro.parallel.TaskFailure`
instead of hanging the grid.

Results come back as flat records ready for
:func:`repro.analysis.report.format_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import ScenarioConfig, run_scenario_grid
from repro.parallel.engine import Engine

__all__ = ["SweepSpec", "SweepCell", "run_sweep", "sweep_table_rows"]


@dataclass(frozen=True)
class SweepSpec:
    """The grid to run."""

    schemes: Tuple[str, ...] = ("pet", "secn1")
    loads: Tuple[float, ...] = (0.6,)
    workloads: Tuple[str, ...] = ("websearch",)

    def cells(self) -> List[Tuple[str, float, str]]:
        return list(product(self.schemes, self.loads, self.workloads))

    def __len__(self) -> int:
        return len(self.schemes) * len(self.loads) * len(self.workloads)


@dataclass
class SweepCell:
    """One grid cell's outcome, flattened for reporting."""

    scheme: str
    load: float
    workload: str
    metrics: Dict[str, float]


def run_sweep(spec: SweepSpec, base: Optional[ScenarioConfig] = None, *,
              workers: int = 1, engine: Optional[Engine] = None
              ) -> List[SweepCell]:
    """Run every cell of the grid; cells return in grid order.

    Parameters
    ----------
    spec:
        The grid.
    base:
        Template scenario; load/workload are substituted per cell.
    workers:
        1 = in-process (pretraining cache shared across cells, compatible
        fluid cells stepped as one batch); >1 = a
        :class:`repro.parallel.Engine` process pool of that size.
    engine:
        Pre-configured engine to use instead of ``workers`` (custom
        retry policy, queue depth, mp context).

    Raises
    ------
    repro.parallel.TaskFailedError
        Through an engine, when any cell failed (after the engine's
        crash-retry); the exception lists every structured failure.
        In-process, a failing cell raises its own exception.
    """
    base = base or ScenarioConfig()
    cells = spec.cells()
    results = run_scenario_grid(
        [(s, replace(base, load=l, workload=w)) for s, l, w in cells],
        workers=workers, engine=engine)
    return [SweepCell(scheme=s, load=l, workload=w, metrics=res.summary_row())
            for (s, l, w), res in zip(cells, results)]


def sweep_table_rows(cells: Sequence[SweepCell],
                     metric: str = "overall_avg_fct"
                     ) -> Tuple[List[str], List[List]]:
    """Pivot cells into (headers, rows): schemes × (workload, load)."""
    columns = sorted({(c.workload, c.load) for c in cells})
    schemes = sorted({c.scheme for c in cells})
    headers = ["scheme"] + [f"{w}@{l:.0%}" for (w, l) in columns]
    index = {(c.scheme, c.workload, c.load): c.metrics.get(metric,
                                                           float("nan"))
             for c in cells}
    rows = []
    for s in schemes:
        rows.append([s] + [index.get((s, w, l), float("nan"))
                           for (w, l) in columns])
    return headers, rows
