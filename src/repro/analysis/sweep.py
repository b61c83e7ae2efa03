"""Parameter sweeps over (scheme × load × workload), optionally parallel.

The evaluation grids of the paper (Figs. 4, 5, 8) are embarrassingly
parallel: every cell is an independent simulation.  ``run_sweep``
executes a grid either serially (sharing the in-process pretraining
cache) or across worker processes through the
:class:`repro.parallel.Engine` (each worker pays its own training, but
wall-clock scales with cores — the right trade for wide grids on
many-core machines).  Cells always come back in grid order — the
engine's ordered merge makes parallel output element-for-element
identical to the serial run — and a cell that dies in a worker is
retried once, then surfaced as a structured
:class:`repro.parallel.TaskFailure` instead of hanging the grid.

Results come back as flat records ready for
:func:`repro.analysis.report.format_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import (ScenarioConfig, run_scenario,
                                        run_scenarios_batched)
from repro.parallel.engine import Engine, EngineReport, TaskSpec

__all__ = ["SweepSpec", "SweepCell", "run_sweep", "run_sweep_report",
           "sweep_table_rows"]


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


def _run_cell(args) -> SweepCell:
    scheme, load, workload, base_cfg = args
    cfg = replace(base_cfg, load=load, workload=workload)
    result = run_scenario(scheme, cfg)
    return SweepCell(scheme=scheme, load=load, workload=workload,
                     metrics=result.summary_row())


def run_sweep_report(spec: SweepSpec, base: Optional[ScenarioConfig] = None, *,
                     workers: int = 1, engine: Optional[Engine] = None
                     ) -> EngineReport:
    """Run the grid through the rollout engine; returns the full report.

    The report carries per-task wall times and structured failures on
    top of the cell values.  Task ids follow :meth:`SweepSpec.cells`
    order.
    """
    base = base or ScenarioConfig()
    eng = engine if engine is not None else Engine(workers=workers)
    specs = [TaskSpec(task_id=i, fn=_run_cell, args=((s, l, w, base),))
             for i, (s, l, w) in enumerate(spec.cells())]
    return eng.run(specs)


def run_sweep(spec: SweepSpec, base: Optional[ScenarioConfig] = None, *,
              workers: int = 1, engine: Optional[Engine] = None,
              sim_batch: bool = False) -> List[SweepCell]:
    """Run every cell of the grid; cells return in grid order.

    Parameters
    ----------
    spec:
        The grid.
    base:
        Template scenario; load/workload are substituted per cell.
    workers:
        1 = serial in-process (pretraining cache shared across cells);
        >1 = a :class:`repro.parallel.Engine` process pool of that size.
    engine:
        Pre-configured engine to use instead of ``workers`` (custom
        retry policy, queue depth, mp context).
    sim_batch:
        Step every cell's simulator as one replica of a
        :class:`repro.netsim.batchfluid.BatchFluidNetwork` — the whole
        grid's measured runs become one vectorized tensor program in
        this process (setup and the shared pretraining cache behave
        exactly like the serial path, and cell values are bit-identical
        to it).  Requires the fluid substrate; ignores ``workers``.

    Raises
    ------
    repro.parallel.TaskFailedError
        When any cell failed (after the engine's crash-retry); the
        exception lists every structured failure.
    repro.netsim.batchfluid.BatchCompatError
        With ``sim_batch=True``, when cells cannot share a batch (e.g.
        packet-simulator scenarios).
    """
    if sim_batch:
        if engine is not None:
            raise ValueError("sim_batch=True runs in-process; pass "
                             "engine=None (or drop sim_batch)")
        base = base or ScenarioConfig()
        cells = spec.cells()
        jobs = [(s, replace(base, load=l, workload=w)) for s, l, w in cells]
        results = run_scenarios_batched(jobs)
        return [SweepCell(scheme=s, load=l, workload=w,
                          metrics=res.summary_row())
                for (s, l, w), res in zip(cells, results)]
    return run_sweep_report(spec, base, workers=workers,
                            engine=engine).values()


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
