"""Tests for the scenario harness that drives the benchmark suite."""

from dataclasses import replace

import numpy as np
import pytest

import repro.analysis.experiments as ex
from repro.analysis.experiments import (SCHEMES, ExperimentResult,
                                        ScenarioConfig, _make_network,
                                        build_scheme, clear_pretrain_cache,
                                        run_scenario, run_scenario_grid)
from repro.baselines.acc import ACCController
from repro.baselines.static_ecn import StaticECNController
from repro.core.pet import PETController
from repro.fingerprint import fingerprint
from repro.netsim.batchfluid import BatchFluidNetwork
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.fluid import FluidConfig
from repro.netsim.topology import TopologyConfig
from repro.parallel.engine import Engine
from repro.resilience.faults import FaultPlan, FaultSpec
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


def link_failure(fail_at, restore_at, fraction, delta_t=1e-3):
    """Fig. 7's episode as faults: ``fraction`` of the fabric's links fail
    after interval ``round(fail_at / delta_t)`` and come back after
    interval ``round(restore_at / delta_t)``.

    Each event sits mid-interval, at ``(round(t / delta_t) + ½) ·
    delta_t``: an event fires at the first interval boundary at or after
    its time, so the boundary it fires at is the one ending that
    interval, whatever rounding the clock's sums carry.
    """
    def mid(t):
        return (round(t / delta_t) + 0.5) * delta_t
    return tuple(FaultPlan().link_down(mid(fail_at), fraction)
                 .link_restore(mid(restore_at)).specs)


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

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_failure_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="fraction"):
            ScenarioConfig(duration=0.1, faults=(FaultSpec(
                "link-down", 0.02, params={"fraction": fraction}),))

    @pytest.mark.parametrize("instants", [(0.02, 0.2), (0.2, 0.3),
                                          (-0.01, 0.05)])
    def test_failure_outside_the_run(self, instants):
        """A fault at or after ``duration`` never fires: rejected, like a
        negative time."""
        with pytest.raises(ValueError, match="fault"):
            ScenarioConfig(duration=0.1, faults=tuple(
                FaultPlan().link_down(instants[0])
                .link_restore(instants[1]).specs))

    def test_failure_on_packet_simulator(self):
        """Faults are a field of every substrate's scenario."""
        faults = link_failure(0.02, 0.05, 0.1)
        cfg = ScenarioConfig(simulator="packet", duration=0.1, faults=faults)
        assert cfg.faults == faults

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
    "fig7": {"incast": False, "faults": link_failure(0.01, 0.02, 0.5)},
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
        """The link fails at the ``now`` that ends interval
        ``round(fail_at_s / delta_t)``; "during" opens there and closes at
        the restore's."""
        scheme, cfg = JOBS["fig7-secn1"]
        at = {}
        r = run_scenario(scheme, cfg,
                         on_interval=lambda i, now, stats: at.setdefault(i,
                                                                         now))
        assert [(e.kind, e.time) for e in r.faults] == [
            ("link-down", at[round(0.01 / cfg.delta_t)]),
            ("link-restore", at[round(0.02 / cfg.delta_t)])]
        assert list(r.windows) == ["before", "during", "after"]
        assert r.windows["during"]["overall"].count > 0
        assert sum(w["overall"].count for w in r.windows.values()) == \
            r.flows_finished


# ------------------------------------------------------------ the grid
def tiny_base(**kw):
    """A static-scheme job on a four-host fabric, no pretraining."""
    return replace(ScenarioConfig(
        duration=0.02, pretrain_intervals=0, seed=1, load=0.4, incast=False,
        fluid=FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                          host_rate_bps=10e9, spine_rate_bps=40e9)), **kw)


def batch_spy(monkeypatch):
    """The replica count of every ``BatchFluidNetwork.advance``."""
    replicas = []
    advance = BatchFluidNetwork.advance

    def spy(batch, dt):
        replicas.append(len(batch))
        advance(batch, dt)
    monkeypatch.setattr(BatchFluidNetwork, "advance", spy)
    return replicas


def train_spy(monkeypatch):
    """The trainees of every offline pretraining the grid starts."""
    trained = []
    train = ex._train

    def spy(trainees, **kwargs):
        trained.append(len(trainees))
        return train(trainees, **kwargs)
    monkeypatch.setattr(ex, "_train", spy)
    return trained


class TestGrid:
    """In-process grids batch compatible fluid jobs by themselves; each
    result must equal ``run_scenario`` run job by job."""

    def test_serial_grid(self):
        jobs = [("secn1", tiny_base()), ("secn2", tiny_base())]
        results = run_scenario_grid(jobs, workers=1)
        assert [r.scheme for r in results] == ["secn1", "secn2"]
        for r in results:
            row = r.summary_row()
            assert np.isfinite(row["overall_avg_fct"])
            assert row["workload"] == "websearch"

    def test_workers_match_serial(self):
        jobs = [("secn1", tiny_base())]
        serial = run_scenario_grid(jobs, workers=1)
        parallel = run_scenario_grid(jobs, workers=2)
        assert fingerprint(serial) == fingerprint(parallel)

    def test_rows_stand_alone(self):
        jobs = [("secn1", tiny_base(load=0.3)),
                ("secn2", tiny_base(load=0.5, workload="datamining"))]
        rows = [r.summary_row() for r in run_scenario_grid(jobs)]
        for (scheme, cfg), row in zip(jobs, rows):
            assert {k: row[k] for k in ("scheme", "workload", "load", "seed",
                                        "simulator")} == {
                "scheme": scheme, "workload": cfg.workload, "load": cfg.load,
                "seed": 1, "simulator": "fluid"}
            assert np.isfinite(row["overall_avg_fct"])

    def test_matches_solo_bitwise(self):
        base = tiny_base(pretrain_intervals=20, seed=5)
        jobs = [(s, replace(base, load=load))
                for s in ("pet", "secn1") for load in (0.4, 0.7)]
        clear_pretrain_cache()
        solo = [run_scenario(s, c) for s, c in jobs]
        clear_pretrain_cache()
        grid = run_scenario_grid(jobs)
        clear_pretrain_cache()
        assert [r.summary_row() for r in grid] == \
            [r.summary_row() for r in solo]
        assert fingerprint(grid) == fingerprint(solo)

    def test_mixed_substrates_batch_only_the_compatible_pair(self,
                                                             monkeypatch):
        """Mixed jobs: a compatible fluid pair, fluid jobs of another
        duration and of another fabric, a packet job and a fat-tree job.
        Only the pair may step as a batch, and every result must match
        its solo run."""
        pair = tiny_base(pretrain_intervals=20)
        jobs = [("pet", pair),
                ("secn1", tiny_base(duration=0.03)),
                ("secn1", ScenarioConfig(
                    simulator="packet", duration=0.004, pretrain_intervals=0,
                    seed=1, load=0.4, incast=False,
                    packet=TopologyConfig(n_spine=1, n_leaf=2,
                                          hosts_per_leaf=2))),
                ("secn2", pair),
                ("secn1", tiny_base(fluid=FluidConfig(
                    n_spine=2, n_leaf=2, hosts_per_leaf=2,
                    host_rate_bps=10e9, spine_rate_bps=40e9))),
                ("secn2", ScenarioConfig(
                    simulator="fluid_shard", duration=0.01,
                    pretrain_intervals=0, seed=1, load=0.4, incast=False,
                    fattree=FatTreeConfig.small()))]
        replicas = batch_spy(monkeypatch)
        clear_pretrain_cache()
        ref = [run_scenario(s, c) for s, c in jobs]
        assert replicas == []
        clear_pretrain_cache()
        grid = run_scenario_grid(jobs)
        clear_pretrain_cache()
        assert [r.scheme for r in grid] == [s for s, _ in jobs]
        assert [fingerprint(r) for r in grid] == [fingerprint(r) for r in ref]
        intervals = round(pair.duration / pair.delta_t)
        drain = max(int(0.2 * intervals), 10)
        assert replicas == [2] * (intervals + drain)

    def test_sim_batch_false_is_rejected(self):
        with pytest.raises(ValueError, match="sim_batch"):
            run_scenario_grid([("secn1", tiny_base())], sim_batch=False)

    def test_engine_path_matches_in_process(self):
        jobs = [("secn1", tiny_base()), ("secn2", tiny_base())]
        local = run_scenario_grid(jobs)
        fanned = run_scenario_grid(jobs, engine=Engine(workers=2))
        assert fingerprint(local) == fingerprint(fanned)


#: the offline pretraining budget of every learning job below
PRETRAIN = 20
#: PET, ACC and Fig. 9's ablated PET at two loads and two seeds on one
#: fluid fabric, then a fat-tree PET job
PRETRAIN_JOBS = [
    (scheme, tiny_base(load=load, seed=seed, pretrain_intervals=PRETRAIN,
                       duration=0.01, pet={"update_interval": 5}))
    for scheme in ("pet", "acc", "pet_ablated")
    for load in (0.3, 0.6) for seed in (1, 2)] + [
    ("pet", ScenarioConfig(
        simulator="fluid_shard", duration=0.01, pretrain_intervals=PRETRAIN,
        seed=1, load=0.4, incast=False, pet={"update_interval": 5},
        fattree=FatTreeConfig.small()))]


class TestBatchedPretraining:
    """The grid pretrains its learning jobs together: one
    :func:`repro.core.training._train` steps every compatible fluid
    training fabric as one batch, with each job's bits unchanged."""

    def test_batch_matches_solo_and_workers(self, monkeypatch):
        replicas = batch_spy(monkeypatch)
        solo = []
        for job in PRETRAIN_JOBS:
            clear_pretrain_cache()
            solo.append(run_scenario(*job))
        assert replicas == []
        clear_pretrain_cache()
        grid = run_scenario_grid(PRETRAIN_JOBS)
        clear_pretrain_cache()
        fluid = len(PRETRAIN_JOBS) - 1
        intervals = round(PRETRAIN_JOBS[0][1].duration / 1e-3)
        drain = max(int(0.2 * intervals), 10)
        # the fluid trainings step as one batch, the fat-tree one alone;
        # then the fluid measured runs batch likewise
        assert replicas == [fluid] * PRETRAIN + [fluid] * (intervals + drain)
        fanned = run_scenario_grid(PRETRAIN_JOBS, engine=Engine(workers=2))
        assert [fingerprint(r) for r in grid] == \
            [fingerprint(r) for r in solo]
        assert fingerprint(grid) == fingerprint(fanned)

    def test_fat_tree_trainings_step_alone(self, monkeypatch):
        """Fat-tree jobs never join a fluid batch: two seeds train and
        run one at a time, each equal to its solo run."""
        fat = PRETRAIN_JOBS[-1]
        jobs = [fat, (fat[0], replace(fat[1], seed=2))]
        replicas = batch_spy(monkeypatch)
        solo = []
        for job in jobs:
            clear_pretrain_cache()
            solo.append(run_scenario(*job))
        clear_pretrain_cache()
        grid = run_scenario_grid(jobs)
        clear_pretrain_cache()
        assert replicas == []
        assert [fingerprint(r) for r in grid] == \
            [fingerprint(r) for r in solo]
        assert fingerprint(grid[0]) != fingerprint(grid[1])

    def test_identical_jobs_train_once_and_warm_grid_trains_nothing(
            self, monkeypatch):
        trained = train_spy(monkeypatch)
        job = PRETRAIN_JOBS[0]
        clear_pretrain_cache()
        a, b = run_scenario_grid([job, job])
        assert trained == [1]
        assert fingerprint(a) == fingerprint(b)
        warm = run_scenario_grid([job, job])
        clear_pretrain_cache()
        assert trained == [1]
        assert fingerprint(warm) == fingerprint([a, b])

    def test_one_training_call_per_pretraining_length(self, monkeypatch):
        trained = train_spy(monkeypatch)
        scheme, cfg = PRETRAIN_JOBS[0]
        longer = replace(cfg, pretrain_intervals=2 * PRETRAIN)
        clear_pretrain_cache()
        run_scenario_grid([(scheme, cfg), ("acc", longer), ("pet", longer),
                           ("acc", cfg)])
        clear_pretrain_cache()
        assert trained == [2, 2]


# ------------------------------------------------------------ faults
#: ``_digest`` of fault jobs, captured when a link failure was still the
#: ``(fail_at_s, restore_at_s, fraction)`` field the runner fired by hand
#: after those intervals; its mid-interval FaultPlan must fire at the
#: same boundaries and draw the same links.
_PINNED_FAULT_JOBS = {
    "fig7-pet":
        "6da2419c61335f84fcd8f3baa6f2e14137ee1a9e173674bf1456fab3b3c4b2eb",
    "fig7-acc":
        "b6ef60004a8377744171f174dbca826a8b3ba0a88436485ffb5a56055f60d0a3",
    "fig7-secn1":
        "cb21ff49f967af9389e779a29b42ea0ab6c4965775ebcbbbf722a7e813ed80ea",
    "fattree-secn1":
        "f5f502b2509542e2258f11dc164d03cfe31b0deb93ac99ea894a852cb866e054",
}
FATTREE_FAILURE = ScenarioConfig(
    simulator="fluid_shard", duration=0.02, pretrain_intervals=0, seed=1,
    load=0.4, incast=False, fattree=FatTreeConfig.small(),
    faults=link_failure(0.006, 0.012, 0.25))
#: one no-pretraining job per substrate
SUBSTRATES = {
    "fluid": tiny_base(duration=0.03, fluid=FluidConfig(
        n_spine=2, n_leaf=2, hosts_per_leaf=2, host_rate_bps=10e9,
        spine_rate_bps=40e9)),
    "fluid_shard": tiny_base(duration=0.03, simulator="fluid_shard",
                             fattree=FatTreeConfig.small()),
    "packet": tiny_base(duration=0.03, simulator="packet",
                        packet=TopologyConfig(n_spine=2, n_leaf=2,
                                              hosts_per_leaf=2)),
}


def extended(cfg):
    """``cfg`` under the whole chaos matrix of its own switches."""
    switches = _make_network(cfg, cfg.seed).switch_names()
    return replace(cfg, faults=tuple(
        FaultPlan.extended(cfg.duration, switches).specs))


class TestFaults:
    """A scenario's faults run through the one runner on every
    substrate, guarded, with the bits of the hand-fired link failure."""

    def test_fault_jobs_hold_their_pinned_digests(self, job_runs):
        for name in ("fig7-pet", "fig7-acc", "fig7-secn1"):
            assert _digest(job_runs["solo"][name]) == \
                _PINNED_FAULT_JOBS[name]
        assert _digest(run_scenario("secn1", FATTREE_FAILURE)) == \
            _PINNED_FAULT_JOBS["fattree-secn1"]

    @pytest.mark.parametrize("simulator", list(SUBSTRATES))
    def test_extended_matrix_completes_guarded(self, simulator):
        cfg = extended(SUBSTRATES[simulator])
        r = run_scenario("pet", cfg)
        kinds = {e.kind for e in r.faults}
        for spec in cfg.faults:
            assert any(k.startswith(spec.kind) for k in kinds), spec.kind
        # the guard quarantined the crashing agent and cleaned telemetry
        assert {"agent-crash", "quarantine", "reinstate",
                "telemetry-missing", "telemetry-corrupt"} <= kinds
        assert len(r.utilization_trace) == cfg.intervals
        assert r.mean_utilization == float(np.mean(r.utilization_trace))
        assert r.flows_finished > 0

    def test_fig7_on_packet_reports_windows(self):
        cfg = replace(SUBSTRATES["packet"],
                      faults=link_failure(0.01, 0.02, 0.25))
        r = run_scenario("secn1", cfg)
        assert [e.kind for e in r.faults] == ["link-down", "link-restore"]
        assert r.faults[0].detail["links"] == 1
        assert list(r.windows) == ["before", "during", "after"]
        assert sum(w["overall"].count for w in r.windows.values()) == \
            r.flows_finished

    def test_in_process_and_workers_agree(self):
        jobs = [("pet", extended(SUBSTRATES["fluid"])),
                ("secn1", extended(SUBSTRATES["fluid"])),
                ("secn1", replace(SUBSTRATES["packet"],
                                  faults=link_failure(0.01, 0.02, 0.25)))]

        def digests(results):
            return [fingerprint((r.fct, r.queue, r.windows, r.queue_samples,
                                 r.faults)) for r in results]
        assert digests(run_scenario_grid(jobs)) == \
            digests(run_scenario_grid(jobs, workers=2))

    @pytest.mark.parametrize("plan", [FaultPlan.fig7(0.05),
                                      FaultPlan().degrade(0.03, 0.04)],
                             ids=["restore-beyond", "window-at-duration"])
    def test_spec_beyond_duration_is_rejected(self, plan):
        with pytest.raises(ValueError, match="duration"):
            replace(SUBSTRATES["fluid"], faults=tuple(plan.specs))
