"""Tests for the sweep utility (serial and process-parallel)."""

import math

import pytest

from repro.analysis.experiments import ScenarioConfig
from repro.analysis.report import format_table
from repro.analysis.sweep import (SweepCell, SweepSpec, run_sweep,
                                  sweep_table_rows)
from repro.netsim.fluid import FluidConfig


def tiny_base():
    return ScenarioConfig(duration=0.02, pretrain_intervals=0, seed=1,
                          load=0.4, incast=False,
                          fluid=FluidConfig(n_spine=1, n_leaf=2,
                                            hosts_per_leaf=2,
                                            host_rate_bps=10e9,
                                            spine_rate_bps=40e9))


class TestSweepSpec:
    def test_cells_cartesian(self):
        spec = SweepSpec(schemes=("secn1", "secn2"), loads=(0.3, 0.6),
                         workloads=("websearch",))
        assert len(spec) == 4
        assert ("secn2", 0.6, "websearch") in spec.cells()


class TestRunSweep:
    def test_serial_sweep(self):
        spec = SweepSpec(schemes=("secn1", "secn2"), loads=(0.4,))
        cells = run_sweep(spec, tiny_base(), workers=1)
        assert len(cells) == 2
        for c in cells:
            assert math.isfinite(c.metrics["overall_avg_fct"])
            assert c.workload == "websearch"

    def test_parallel_sweep_matches_serial(self):
        spec = SweepSpec(schemes=("secn1",), loads=(0.4,))
        serial = run_sweep(spec, tiny_base(), workers=1)
        parallel = run_sweep(spec, tiny_base(), workers=2)
        assert serial[0].metrics["overall_avg_fct"] == pytest.approx(
            parallel[0].metrics["overall_avg_fct"])

    def test_base_substitution(self):
        spec = SweepSpec(schemes=("secn1",), loads=(0.3, 0.5))
        cells = run_sweep(spec, tiny_base())
        assert {c.load for c in cells} == {0.3, 0.5}


class TestTableRows:
    def test_pivot_shape(self):
        cells = [
            SweepCell("secn1", 0.3, "websearch", {"overall_avg_fct": 1.0}),
            SweepCell("secn1", 0.6, "websearch", {"overall_avg_fct": 2.0}),
            SweepCell("pet", 0.3, "websearch", {"overall_avg_fct": 0.5}),
        ]
        headers, rows = sweep_table_rows(cells)
        assert headers == ["scheme", "websearch@30%", "websearch@60%"]
        by_scheme = {r[0]: r[1:] for r in rows}
        assert by_scheme["secn1"] == [1.0, 2.0]
        assert math.isnan(by_scheme["pet"][1])     # missing cell -> NaN
        # renders without error
        assert "scheme" in format_table(headers, rows)


class TestSimBatchSweep:
    """run_sweep(sim_batch=True) — one tensor program per grid, cell
    values bit-identical to the serial per-process path."""

    @staticmethod
    def _canon(cells):
        from repro.fingerprint import fingerprint
        return fingerprint([(c.scheme, c.load, c.workload, c.metrics)
                             for c in cells])

    def test_matches_serial_bitwise(self):
        from repro.analysis.experiments import clear_pretrain_cache
        spec = SweepSpec(schemes=("pet", "secn1"), loads=(0.4, 0.7),
                         workloads=("websearch",))
        base = ScenarioConfig(duration=0.02, pretrain_intervals=20, seed=5,
                              fluid=tiny_base().fluid, incast=False)
        clear_pretrain_cache()
        ref = run_sweep(spec, base, workers=1)
        clear_pretrain_cache()
        bat = run_sweep(spec, base, sim_batch=True)
        assert self._canon(ref) == self._canon(bat)

    def test_rejects_packet_substrate(self):
        from repro.netsim.batchfluid import BatchCompatError
        spec = SweepSpec(schemes=("secn1",), loads=(0.4,))
        base = ScenarioConfig(duration=0.005, pretrain_intervals=0,
                              simulator="packet", incast=False)
        with pytest.raises(BatchCompatError, match="fluid"):
            run_sweep(spec, base, sim_batch=True)

    def test_rejects_engine_combination(self):
        from repro.parallel.engine import Engine
        spec = SweepSpec(schemes=("secn1",), loads=(0.4,))
        with pytest.raises(ValueError, match="sim_batch"):
            run_sweep(spec, tiny_base(), sim_batch=True,
                      engine=Engine(workers=1))

    def test_grid_helper_sim_batch(self):
        from repro.analysis.experiments import (clear_pretrain_cache,
                                                run_scenario,
                                                run_scenario_grid)
        from repro.fingerprint import fingerprint
        base = tiny_base()
        jobs = [("secn1", base), ("secn2", base)]
        clear_pretrain_cache()
        ref = [run_scenario(s, c) for s, c in jobs]
        clear_pretrain_cache()
        bat = run_scenario_grid(jobs, sim_batch=True)
        assert [fingerprint(r.summary_row()) for r in ref] == \
            [fingerprint(r.summary_row()) for r in bat]
