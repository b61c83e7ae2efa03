"""Tests for the scenario harness that drives the benchmark suite."""

import numpy as np
import pytest

from repro.analysis.experiments import (SCHEMES, ExperimentResult,
                                        ScenarioConfig, _measure,
                                        _setup_scenario, build_scheme,
                                        clear_pretrain_cache, run_scenario,
                                        run_scenario_grid)
from repro.baselines.acc import ACCController
from repro.baselines.static_ecn import StaticECNController
from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.fingerprint import fingerprint
from repro.netsim.fluid import FluidConfig
from repro.traffic.patterns import PatternSchedule, PatternSegment


def tiny_scenario(**kw):
    kw.setdefault("duration", 0.02)
    kw.setdefault("pretrain_intervals", 8)
    kw.setdefault("load", 0.4)
    kw.setdefault("fluid", FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=4,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9))
    kw.setdefault("seed", 0)
    return ScenarioConfig(**kw)


class TestBuildScheme:
    def test_all_names_buildable(self):
        for name in SCHEMES:
            ctrl = build_scheme(name, ["leaf0", "spine0"], seed=0)
            assert hasattr(ctrl, "decide")

    def test_types(self):
        assert isinstance(build_scheme("pet", ["s"]), PETController)
        assert isinstance(build_scheme("acc", ["s"]), ACCController)
        assert isinstance(build_scheme("secn1", ["s"]), StaticECNController)

    def test_ablated_pet_masks_features(self):
        ctrl = build_scheme("pet_ablated", ["s"], seed=0)
        assert not ctrl.config.use_incast
        assert not ctrl.config.use_flow_ratio

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            build_scheme("qlearning", ["s"])


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(simulator="ns3")
        with pytest.raises(KeyError):
            ScenarioConfig(workload="hadoop")

    def test_host_rate_follows_simulator(self):
        cfg = ScenarioConfig(simulator="fluid")
        assert cfg.host_rate_bps == cfg.fluid.host_rate_bps


class TestScenarioValidation:
    """Each rejection of a scenario that would otherwise run silently
    wrong."""

    def test_negative_pretrain_intervals(self):
        with pytest.raises(ValueError, match="pretrain_intervals"):
            ScenarioConfig(pretrain_intervals=-5)

    def test_overlapping_phases(self):
        with pytest.raises(ValueError, match="overlap"):
            ScenarioConfig(phases=(PatternSegment("websearch", 0.0, 0.1, 0.5),
                                   PatternSegment("datamining", 0.05, 0.1,
                                                  0.5)))

    def test_restore_not_after_failure(self):
        with pytest.raises(ValueError, match="link_failure"):
            ScenarioConfig(duration=0.1, link_failure=(0.05, 0.05, 0.1))
        with pytest.raises(ValueError, match="link_failure"):
            ScenarioConfig(duration=0.1, link_failure=(0.06, 0.04, 0.1))

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_failure_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="fraction"):
            ScenarioConfig(duration=0.1, link_failure=(0.02, 0.05, fraction))

    @pytest.mark.parametrize("instants", [(0.02, 0.2), (0.2, 0.3),
                                          (-0.01, 0.05)])
    def test_failure_outside_the_run(self, instants):
        with pytest.raises(ValueError, match="link_failure"):
            ScenarioConfig(duration=0.1, link_failure=(*instants, 0.1))

    def test_failure_on_packet_simulator(self):
        with pytest.raises(ValueError, match="fluid"):
            ScenarioConfig(simulator="packet", duration=0.1,
                           link_failure=(0.02, 0.05, 0.1))

    def test_unknown_pet_key(self):
        with pytest.raises(ValueError, match="history_len"):
            ScenarioConfig(pet={"history_len": 2})

    @pytest.mark.parametrize("key", ["seed", "delta_t"])
    def test_pet_key_set_by_scenario(self, key):
        with pytest.raises(ValueError, match=key):
            ScenarioConfig(pet={key: 1})


class TestRunScenario:
    @pytest.mark.parametrize("scheme", ["secn1", "secn2"])
    def test_static_schemes(self, scheme):
        r = run_scenario(scheme, tiny_scenario())
        assert isinstance(r, ExperimentResult)
        assert r.flows_finished > 0
        assert r.fct["overall"].avg >= 1.0    # slowdown can't beat ideal
        assert 0 <= r.mean_utilization <= 1
        assert r.queue.samples > 0

    def test_pet_runs_with_pretraining(self):
        r = run_scenario("pet", tiny_scenario())
        assert r.scheme == "pet"
        assert r.flows_finished > 0
        assert np.isfinite(r.fct["overall"].avg)

    def test_acc_reports_overhead(self):
        r = run_scenario("acc", tiny_scenario())
        assert r.extra["bytes_exchanged_total"] > 0
        assert r.extra["replay_entries"] > 0

    def test_summary_row_fields(self):
        r = run_scenario("secn1", tiny_scenario())
        row = r.summary_row()
        for key in ("overall_avg_fct", "mice_avg_fct", "mice_p99_fct",
                    "elephant_avg_fct", "queue_mean_kb", "utilization"):
            assert key in row

    def test_seed_reproducibility(self):
        a = run_scenario("secn1", tiny_scenario(seed=3))
        b = run_scenario("secn1", tiny_scenario(seed=3))
        assert a.fct["overall"].avg == pytest.approx(b.fct["overall"].avg)
        assert a.flows_total == b.flows_total

    def test_different_seeds_differ(self):
        a = run_scenario("secn1", tiny_scenario(seed=3))
        b = run_scenario("secn1", tiny_scenario(seed=4))
        assert a.flows_total != b.flows_total or \
            a.fct["overall"].avg != b.fct["overall"].avg

    def test_on_interval_callback_invoked(self):
        hits = []
        run_scenario("secn1", tiny_scenario(),
                     on_interval=lambda i, now, stats: hits.append(i))
        assert len(hits) == 20     # duration / delta_t

    def test_incast_toggle(self):
        with_incast = tiny_scenario(incast=True, seed=9)
        without = tiny_scenario(incast=False, seed=9)
        a = run_scenario("secn1", with_incast)
        b = run_scenario("secn1", without)
        assert a.flows_total > b.flows_total


# ------------------------------------------------------------ the job form
#: Fig. 6-, Fig. 7- and ablation-shaped changes to one tiny scenario
SHAPES = {
    "fig6": {"incast": False, "phases": tuple(PatternSchedule.paper_fig6(
        load=0.5, scale=0.003).segments)},
    "fig7": {"incast": False, "link_failure": (0.01, 0.02, 0.5)},
    "ablation": {"pet": {"history_k": 2}},
}
JOBS = {f"{shape}-{scheme}": (scheme, tiny_scenario(
    duration=0.03, pretrain_intervals=20, load=0.5, **kw))
    for shape, kw in SHAPES.items() for scheme in ("pet", "acc", "secn1")}


def _digest(r):
    return fingerprint((r.fct, r.queue, r.windows, r.queue_samples))


@pytest.fixture(scope="module")
def job_runs():
    """Every job solo, as one in-process batched grid and over two
    workers, each run paying its own pretraining."""
    out = {}
    for mode, run in (
            ("solo", lambda jobs: [run_scenario(*j) for j in jobs]),
            ("grid", run_scenario_grid),
            ("workers", lambda jobs: run_scenario_grid(jobs, workers=2))):
        clear_pretrain_cache()
        out[mode] = dict(zip(JOBS, run(list(JOBS.values()))))
    clear_pretrain_cache()
    return out


class TestJobForm:
    @pytest.mark.parametrize("name", list(JOBS))
    def test_solo_grid_and_workers_agree(self, job_runs, name):
        solo = job_runs["solo"][name]
        assert solo.flows_finished > 0
        assert _digest(solo) == _digest(job_runs["grid"][name]) == \
            _digest(job_runs["workers"][name])

    def test_phase_windows_bucket_flows_by_start(self, job_runs):
        r = job_runs["solo"]["fig6-secn1"]
        names = [f"{k}:{ph.workload}"
                 for k, ph in enumerate(r.scenario.phases)]
        assert list(r.windows) == names
        assert sum(w["overall"].count for w in r.windows.values()) == \
            r.flows_finished

    def test_failure_window_starts_at_fail_interval(self):
        """"during" opens at the ``now`` of interval
        ``round(fail_at_s / delta_t)`` and closes at the restore's."""
        scheme, cfg = JOBS["fig7-secn1"]
        fail_at, restore_at, _ = cfg.link_failure
        at = {}

        def probe(i, now, stats):
            at[i] = now
        prep = _setup_scenario(scheme, cfg)
        prep.on_interval = probe
        (r,) = _measure([prep])
        assert prep.failure_times == [
            at[round(fail_at / cfg.delta_t)],
            at[round(restore_at / cfg.delta_t)]]
        assert list(r.windows) == ["before", "during", "after"]
        assert r.windows["during"]["overall"].count > 0
        assert sum(w["overall"].count for w in r.windows.values()) == \
            r.flows_finished
