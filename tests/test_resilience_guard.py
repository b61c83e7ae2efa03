"""Graceful-degradation tests for the ResilientController guard."""

import math

import numpy as np
import pytest

from repro.baselines.static_ecn import StaticECNController
from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.core.training import run_control_loop
from repro.devtools.sanitize import InvariantViolation
from repro.netsim.ecn import SECN1, ECNConfig
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.network import QueueStats
from repro.resilience import GuardConfig, ResilientController
from repro.resilience.faults import AgentCrashError, ChaosInjector, FaultPlan

SWITCHES = ["leaf0", "leaf1", "spine0"]


def mk_stats(names=SWITCHES, **overrides):
    out = {}
    for name in names:
        kw = dict(switch=name, interval=1e-3, qlen_bytes=10_000.0,
                  max_port_qlen_bytes=5_000.0, avg_qlen_bytes=8_000.0,
                  tx_bytes=100_000, tx_marked_bytes=1_000, dropped_pkts=0,
                  capacity_bps=40e9, ecn=SECN1)
        kw.update(overrides.get(name, {}) if name in overrides else {})
        out[name] = QueueStats(**kw)
    return out


class DummyNet:
    """Just enough network for the guard: set_ecn recording + now."""

    def __init__(self):
        self.now = 0.0
        self.applied = []

    def set_ecn(self, switch, config):
        self.applied.append((switch, config))


class RecordingController:
    """Inner controller that records what it saw and returns a config."""

    def __init__(self, result=None, exc=None):
        self.seen = []
        self.result = result or {}
        self.exc = exc

    def decide(self, stats, now, network):
        self.seen.append(dict(stats))
        if self.exc is not None:
            raise self.exc
        return dict(self.result)

    def set_training(self, training):
        self.training = training


class CrashingController(RecordingController):
    """Raises AgentCrashError for one switch while it appears in stats."""

    def __init__(self, crash_switch, **kw):
        super().__init__(**kw)
        self.crash_switch = crash_switch

    def decide(self, stats, now, network):
        if self.crash_switch in stats:
            raise AgentCrashError(self.crash_switch)
        return super().decide(stats, now, network)


class TestSanitation:
    def test_nan_field_cleaned_before_inner(self):
        inner = RecordingController()
        guard = ResilientController(inner, SWITCHES)
        stats = mk_stats(leaf0={"avg_qlen_bytes": float("nan")})
        guard.decide(stats, 0.0, DummyNet())
        seen = inner.seen[0]["leaf0"]
        assert seen.avg_qlen_bytes == 0.0
        events = guard.log.by_kind("telemetry-corrupt")
        assert len(events) == 1 and events[0].switch == "leaf0"
        assert events[0].detail["fields"] == ("avg_qlen_bytes",)

    def test_negative_counter_cleaned(self):
        inner = RecordingController()
        guard = ResilientController(inner, SWITCHES)
        stats = mk_stats(leaf1={"dropped_pkts": -7,
                                "capacity_bps": float("inf")})
        guard.decide(stats, 0.0, DummyNet())
        seen = inner.seen[0]["leaf1"]
        assert seen.dropped_pkts == 0 and seen.capacity_bps == 0.0

    def test_unusable_interval_drops_switch(self):
        inner = RecordingController()
        guard = ResilientController(inner, SWITCHES)
        stats = mk_stats(spine0={"interval": float("nan")})
        guard.decide(stats, 0.0, DummyNet())
        assert "spine0" not in inner.seen[0]
        assert guard.log.by_kind("telemetry-unusable")

    def test_missing_switch_logged(self):
        inner = RecordingController()
        guard = ResilientController(inner, SWITCHES)
        stats = mk_stats(names=["leaf0", "leaf1"])
        guard.decide(stats, 0.0, DummyNet())
        missing = guard.log.by_kind("telemetry-missing")
        assert [e.switch for e in missing] == ["spine0"]

    def test_clean_stats_untouched(self):
        inner = RecordingController()
        guard = ResilientController(inner, SWITCHES)
        stats = mk_stats()
        guard.decide(stats, 0.0, DummyNet())
        assert inner.seen[0]["leaf0"] is stats["leaf0"]
        assert len(guard.log) == 0


class TestCrashIsolation:
    def test_crash_quarantines_only_that_switch(self):
        inner = CrashingController("leaf0")
        net = DummyNet()
        guard = ResilientController(inner, SWITCHES)
        applied = guard.decide(mk_stats(), 0.0, net)
        # retried without leaf0: survivors were decided on
        assert "leaf0" not in inner.seen[-1]
        assert "leaf1" in inner.seen[-1]
        assert guard.quarantined() == ["leaf0"]
        # leaf0 fell back to the safe static config, on net and in output
        assert ("leaf0", guard.config.safe_ecn) in net.applied
        assert applied["leaf0"] == guard.config.safe_ecn
        kinds = [e.kind for e in guard.log]
        assert "agent-crash" in kinds and "quarantine" in kinds

    def test_reinstated_after_probation(self):
        inner = CrashingController("leaf0")
        net = DummyNet()
        cfg = GuardConfig(probation_intervals=3)
        guard = ResilientController(inner, SWITCHES, cfg)
        guard.decide(mk_stats(), 0.0, net)
        inner.crash_switch = None       # the fault clears
        for i in range(1, 3):
            guard.decide(mk_stats(), float(i), net)
            assert guard.quarantined() == ["leaf0"]
        guard.decide(mk_stats(), 3.0, net)
        assert guard.quarantined() == []
        assert "leaf0" in inner.seen[-1]
        assert guard.log.by_kind("reinstate")

    def test_relapse_doubles_probation(self):
        inner = CrashingController("leaf0")
        net = DummyNet()
        cfg = GuardConfig(probation_intervals=2, backoff_factor=2.0)
        guard = ResilientController(inner, SWITCHES, cfg)
        for i in range(12):
            guard.decide(mk_stats(), float(i), net)
        spans = [e.detail["intervals"] for e in guard.log.by_kind("quarantine")]
        assert spans[:3] == [2, 4, 8]

    def test_probation_capped(self):
        inner = CrashingController("leaf0")
        cfg = GuardConfig(probation_intervals=4, backoff_factor=10.0,
                          max_probation_intervals=6)
        guard = ResilientController(inner, SWITCHES, cfg)
        net = DummyNet()
        for i in range(20):
            guard.decide(mk_stats(), float(i), net)
        spans = [e.detail["intervals"] for e in guard.log.by_kind("quarantine")]
        assert spans[0] == 4 and all(s == 6 for s in spans[1:])

    def test_healthy_streak_clears_strikes(self):
        inner = CrashingController("leaf0")
        net = DummyNet()
        cfg = GuardConfig(probation_intervals=1, recovery_intervals=3)
        guard = ResilientController(inner, SWITCHES, cfg)
        guard.decide(mk_stats(), 0.0, net)       # crash, strike 1
        inner.crash_switch = None
        for i in range(1, 6):
            guard.decide(mk_stats(), float(i), net)
        assert guard.log.by_kind("strikes-cleared")
        assert guard.health["leaf0"].strikes == 0

    def test_unattributed_error_skips_interval(self):
        inner = RecordingController(exc=RuntimeError("boom"))
        guard = ResilientController(inner, SWITCHES)
        applied = guard.decide(mk_stats(), 0.0, DummyNet())
        assert applied == {}
        events = guard.log.by_kind("controller-error")
        assert events and events[0].detail["error"] == "RuntimeError"
        # the loop survives: next interval decides again
        inner.exc = None
        guard.decide(mk_stats(), 1.0, DummyNet())
        assert len(inner.seen) >= 2

    def test_invariant_violation_not_swallowed(self):
        inner = RecordingController(
            exc=InvariantViolation("ecn-thresholds", "harness bug"))
        guard = ResilientController(inner, SWITCHES)
        with pytest.raises(InvariantViolation):
            guard.decide(mk_stats(), 0.0, DummyNet())


class TestBoundsEnforcement:
    def test_oversized_kmax_replaced_with_safe(self):
        huge = ECNConfig(1_000, 10**9, 0.5)      # constructible, absurd
        inner = RecordingController(result={"leaf0": huge})
        net = DummyNet()
        guard = ResilientController(inner, SWITCHES)
        applied = guard.decide(mk_stats(), 0.0, net)
        assert applied["leaf0"] == guard.config.safe_ecn
        assert ("leaf0", guard.config.safe_ecn) in net.applied
        events = guard.log.by_kind("action-out-of-bounds")
        assert events and events[0].detail["kmax"] == 10**9

    def test_in_bounds_config_passes_through(self):
        ok = ECNConfig(5_000, 200_000, 0.1)
        inner = RecordingController(result={"leaf0": ok})
        guard = ResilientController(inner, SWITCHES)
        applied = guard.decide(mk_stats(), 0.0, DummyNet())
        assert applied["leaf0"] == ok
        assert not guard.log.by_kind("action-out-of-bounds")


class TestGuardGauges:
    """Quarantine/probation state is mirrored onto repro.obs gauges so
    /health and `repro trace` never call health_report() in-band."""

    def test_quarantine_exported_as_gauges(self):
        from repro import obs
        registry, _tracer = obs.enable()
        try:
            guard = ResilientController(CrashingController("leaf0"),
                                        SWITCHES)
            guard.decide(mk_stats(), 0.0, DummyNet())
            assert registry.gauge_value("guard.quarantined") == 1
            assert registry.gauge_value("guard.state", switch="leaf0") == 1.0
            assert registry.gauge_value("guard.state", switch="leaf1") == 0.0
            assert registry.gauge_value("guard.strikes", switch="leaf0") >= 1
            assert registry.gauge_value("guard.strikes", switch="leaf1") == 0
        finally:
            obs.disable()

    def test_gauges_clear_after_reinstatement(self):
        from repro import obs
        registry, _tracer = obs.enable()
        try:
            inner = CrashingController("leaf0")
            cfg = GuardConfig(probation_intervals=2)
            guard = ResilientController(inner, SWITCHES, cfg)
            guard.decide(mk_stats(), 0.0, DummyNet())
            assert registry.gauge_value("guard.quarantined") == 1
            inner.crash_switch = None
            for i in range(1, 3):
                guard.decide(mk_stats(), float(i), DummyNet())
            assert registry.gauge_value("guard.quarantined") == 0
            assert registry.gauge_value("guard.state", switch="leaf0") == 0.0
        finally:
            obs.disable()

    def test_no_registry_no_crash(self):
        from repro import obs
        assert not obs.enabled()
        guard = ResilientController(CrashingController("leaf0"), SWITCHES)
        guard.decide(mk_stats(), 0.0, DummyNet())   # null-object path
        assert guard.quarantined() == ["leaf0"]


class TestGuardMisc:
    def test_needs_switches(self):
        with pytest.raises(ValueError):
            ResilientController(RecordingController(), [])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GuardConfig(probation_intervals=0)
        with pytest.raises(ValueError):
            GuardConfig(backoff_factor=0.5)
        with pytest.raises(ValueError):
            GuardConfig(probation_intervals=10, max_probation_intervals=5)

    def test_delegation(self):
        inner = RecordingController()
        guard = ResilientController(inner, SWITCHES)
        guard.set_training(True)
        assert inner.training is True
        assert guard.result == {}      # __getattr__ reaches the inner

    def test_health_report(self):
        guard = ResilientController(CrashingController("leaf0"), SWITCHES)
        guard.decide(mk_stats(), 0.0, DummyNet())
        report = guard.health_report()
        assert report["leaf0"]["state"] == "quarantined"
        assert report["leaf0"]["crashes"] == 1
        assert report["leaf1"]["state"] == "healthy"


class TestGuardedRunEndToEnd:
    """The acceptance scenario: agent crash + NaN telemetry mid-run."""

    def _net(self):
        cfg = FluidConfig(n_spine=2, n_leaf=2, hosts_per_leaf=2,
                          host_rate_bps=10e9, spine_rate_bps=40e9)
        return FluidNetwork(cfg, seed=0)

    def _plan(self):
        return (FaultPlan()
                .agent_crash("leaf0", 0.005, 0.012)
                .corrupt("leaf1", 0.008, 0.015, value=float("nan")))

    def test_unguarded_run_dies_on_agent_crash(self):
        net = self._net()
        chaos = ChaosInjector(net, self._plan())
        controller = chaos.wrap(StaticECNController(SECN1))
        chaos.arm()
        try:
            with pytest.raises(AgentCrashError):
                run_control_loop(net, controller, intervals=30,
                                 delta_t=1e-3, chaos=chaos)
        finally:
            chaos.disarm()

    def test_guarded_run_completes_and_recovers(self):
        net = self._net()
        chaos = ChaosInjector(net, self._plan())
        pet = PETController(net.switch_names(), PETConfig(seed=0))
        pet.set_training(True)
        guard = ResilientController(chaos.wrap(pet), net.switch_names(),
                                    GuardConfig(probation_intervals=3),
                                    log=chaos.log)
        chaos.arm()
        try:
            result = run_control_loop(net, guard, intervals=30,
                                      delta_t=1e-3, chaos=chaos)
        finally:
            chaos.disarm()
        assert result.intervals == 30
        assert math.isfinite(result.mean_reward)
        kinds = set(e.kind for e in result.faults)
        assert {"agent-crash", "quarantine", "reinstate",
                "telemetry-corrupt"} <= kinds
        # the quarantined switch ran the safe static config meanwhile
        crash_events = [e for e in result.faults if e.kind == "quarantine"]
        assert all(e.switch == "leaf0" for e in crash_events)
        assert guard.quarantined() == []          # reinstated by the end
        # ground-truth telemetry stayed finite (corruption only poisoned
        # the controller-visible copy)
        assert all(np.isfinite(v)
                   for v in result.rewards_per_switch.values())
