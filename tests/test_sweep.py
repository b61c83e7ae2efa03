"""Tests for the sweep utility (serial and process-parallel)."""

import math
from dataclasses import replace

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
    """In-process grids batch compatible fluid jobs by themselves; each
    result must equal ``run_scenario`` run job by job."""

    @staticmethod
    def _canon(cells):
        from repro.fingerprint import fingerprint
        return fingerprint([(c.scheme, c.load, c.workload, c.metrics)
                             for c in cells])

    def test_matches_serial_bitwise(self):
        from repro.analysis.experiments import (clear_pretrain_cache,
                                                run_scenario)
        spec = SweepSpec(schemes=("pet", "secn1"), loads=(0.4, 0.7),
                         workloads=("websearch",))
        base = ScenarioConfig(duration=0.02, pretrain_intervals=20, seed=5,
                              fluid=tiny_base().fluid, incast=False)
        clear_pretrain_cache()
        ref = []
        for s, l, w in spec.cells():
            r = run_scenario(s, replace(base, load=l, workload=w))
            ref.append(SweepCell(s, l, w, r.summary_row()))
        clear_pretrain_cache()
        bat = run_sweep(spec, base)
        assert self._canon(ref) == self._canon(bat)

    def test_grid_helper_sim_batch(self, monkeypatch):
        """Mixed jobs: a compatible fluid pair, fluid jobs of another
        duration and of another fabric, a packet job and a fat-tree job.
        Only the pair may step as a batch, and every result must match
        its solo run."""
        from repro.analysis.experiments import (clear_pretrain_cache,
                                                run_scenario,
                                                run_scenario_grid)
        from repro.fingerprint import fingerprint
        from repro.netsim.batchfluid import BatchFluidNetwork
        from repro.netsim.fattree import FatTreeConfig
        from repro.netsim.topology import TopologyConfig
        pair = replace(tiny_base(), pretrain_intervals=20)
        jobs = [("pet", pair),
                ("secn1", replace(tiny_base(), duration=0.03)),
                ("secn1", ScenarioConfig(
                    simulator="packet", duration=0.004, pretrain_intervals=0,
                    seed=1, load=0.4, incast=False,
                    packet=TopologyConfig(n_spine=1, n_leaf=2,
                                          hosts_per_leaf=2))),
                ("secn2", pair),
                ("secn1", replace(tiny_base(), fluid=FluidConfig(
                    n_spine=2, n_leaf=2, hosts_per_leaf=2,
                    host_rate_bps=10e9, spine_rate_bps=40e9))),
                ("secn2", ScenarioConfig(
                    simulator="fluid_shard", duration=0.01,
                    pretrain_intervals=0, seed=1, load=0.4, incast=False,
                    fattree=FatTreeConfig.small()))]
        replicas = []
        advance = BatchFluidNetwork.advance

        def spy(batch, dt):
            replicas.append(len(batch))
            advance(batch, dt)
        monkeypatch.setattr(BatchFluidNetwork, "advance", spy)

        clear_pretrain_cache()
        ref = [run_scenario(s, c) for s, c in jobs]
        assert replicas == []
        clear_pretrain_cache()
        grid = run_scenario_grid(jobs)
        assert [r.scheme for r in grid] == [s for s, _ in jobs]
        assert [fingerprint(r) for r in grid] == [fingerprint(r) for r in ref]
        intervals = round(pair.duration / pair.delta_t)
        drain = max(int(0.2 * intervals), 10)
        assert replicas == [2] * (intervals + drain)

    def test_sim_batch_false_is_rejected(self):
        from repro.analysis.experiments import run_scenario_grid
        with pytest.raises(ValueError, match="sim_batch"):
            run_scenario_grid([("secn1", tiny_base())], sim_batch=False)

    def test_engine_path_matches_in_process(self):
        from repro.analysis.experiments import run_scenario_grid
        from repro.fingerprint import fingerprint
        from repro.parallel.engine import Engine
        jobs = [("secn1", tiny_base()), ("secn2", tiny_base())]
        local = run_scenario_grid(jobs)
        fanned = run_scenario_grid(jobs, engine=Engine(workers=2))
        assert fingerprint(local) == fingerprint(fanned)
