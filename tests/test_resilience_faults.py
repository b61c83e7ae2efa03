"""Tests for the chaos fault plan, injector, and the chaos CLI."""

import numpy as np
import pytest

from repro.analysis.experiments import ScenarioConfig
from repro.analysis.resilience import (fault_summary, first_fault_time,
                                       quarantine_spans)
from repro.cli import main as repro_main
from repro.netsim.ecn import SECN1, SECN2, ECNConfig
from repro.netsim.failures import LinkFailureInjector
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.network import PacketNetwork
from repro.netsim.topology import TopologyConfig
from repro.resilience.faults import (AgentCrashError, ChaosInjector,
                                     FaultPlan, FaultSpec)
from repro.resilience.cli import chaos_main, run_chaos_scenario


def mk_fluid(seed=0):
    cfg = FluidConfig(n_spine=2, n_leaf=2, hosts_per_leaf=2,
                      host_rate_bps=10e9, spine_rate_bps=40e9)
    return FluidNetwork(cfg, seed=seed)


def mk_packet():
    cfg = TopologyConfig(n_spine=2, n_leaf=2, hosts_per_leaf=2,
                         host_rate_bps=1e8, spine_rate_bps=4e8)
    return PacketNetwork(cfg, seed=1)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor-strike", 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("link-down", -1.0)

    def test_window_must_end_after_start(self):
        with pytest.raises(ValueError):
            FaultSpec("degrade", 1.0, 1.0)

    def test_active_is_half_open(self):
        spec = FaultSpec("crash", 1.0, 2.0, "leaf0")
        assert not spec.active(0.5)
        assert spec.active(1.0) and spec.active(1.999)
        assert not spec.active(2.0)


class TestFaultPlan:
    def test_fig7_times(self):
        plan = FaultPlan.fig7(10.0)
        kinds = [(s.kind, s.at) for s in plan.sorted_specs()]
        assert kinds == [("link-down", 3.1), ("link-restore", 6.1)]

    def test_flap_expands_to_alternating_events(self):
        plan = FaultPlan().link_flap(0.0, 1.0, period=0.5)
        kinds = [s.kind for s in plan.sorted_specs()]
        assert kinds == ["link-down", "link-restore",
                         "link-down", "link-restore"]
        times = [s.at for s in plan.sorted_specs()]
        assert times == [0.0, 0.25, 0.5, 0.75]

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().degrade(0.0, 1.0, factor=0.0)
        with pytest.raises(ValueError):
            FaultPlan().blackout("leaf0", 0.0, 1.0, mode="weird")
        with pytest.raises(ValueError):
            FaultPlan().ecn_unreliable(0.0, 1.0, drop_p=0.8, delay_p=0.5)
        with pytest.raises(ValueError):
            FaultPlan().link_flap(0.0, 1.0, period=0.0)
        with pytest.raises(ValueError):
            FaultPlan.fig7(0.0)
        with pytest.raises(ValueError):
            FaultPlan.extended(1.0, [])

    def test_extended_covers_the_matrix(self):
        plan = FaultPlan.extended(1.0, ["spine0", "leaf0", "leaf1"])
        kinds = set(s.kind for s in plan.specs)
        assert kinds == {"link-down", "link-restore", "degrade", "blackout",
                         "corrupt", "crash", "ecn-unreliable"}
        # targets come from the *sorted* switch list, deterministically
        blackout = next(s for s in plan.specs if s.kind == "blackout")
        assert blackout.switch == "leaf0"


class TestFluidInjection:
    def test_link_down_and_restore_via_tick(self):
        net = mk_fluid()
        plan = FaultPlan().link_down(0.005, fraction=0.25).link_restore(0.01)
        chaos = ChaosInjector(net, plan, rng=np.random.default_rng(0))
        chaos.tick(0.0)
        assert net.uplink_up.all()
        chaos.tick(0.005)
        assert not net.uplink_up.all()
        chaos.tick(0.01)
        assert net.uplink_up.all()
        assert [e.kind for e in chaos.log] == ["link-down", "link-restore"]
        assert chaos.log.events[0].detail["links"] >= 1

    def test_degrade_window_scales_and_restores_capacity(self):
        net = mk_fluid()
        nominal = net.q_cap.copy()
        plan = FaultPlan().degrade(0.002, 0.006, factor=0.5)
        chaos = ChaosInjector(net, plan)
        chaos.tick(0.0)
        np.testing.assert_array_equal(net.q_cap, nominal)
        chaos.tick(0.003)
        assert net.fabric_capacity_factor == 0.5
        assert (net.q_cap <= nominal).all() and (net.q_cap < nominal).any()
        chaos.tick(0.006)
        assert net.fabric_capacity_factor == 1.0
        np.testing.assert_array_equal(net.q_cap, nominal)
        kinds = [e.kind for e in chaos.log]
        assert kinds == ["degrade-begin", "degrade-end"]

    def test_fabric_factor_validated(self):
        with pytest.raises(ValueError):
            mk_fluid().set_fabric_capacity_factor(0.0)
        with pytest.raises(ValueError):
            mk_fluid().set_fabric_capacity_factor(1.5)


class TestPacketInjection:
    def test_link_events_run_on_the_event_engine(self):
        net = mk_packet()
        fabric = net.topology.fabric_ports

        def downed():
            return sum(not net.topology.node(sw).ports[i].up
                       for sw, i in fabric)

        plan = FaultPlan().link_down(0.001, fraction=0.25).link_restore(0.003)
        chaos = ChaosInjector(net, plan, rng=np.random.default_rng(0))
        chaos.arm()
        try:
            net.advance(0.002)           # past the down event only
            assert downed() >= 1
            net.advance(0.002)           # past the restore event
            assert downed() == 0
        finally:
            chaos.disarm()
        assert [e.kind for e in chaos.log] == ["link-down", "link-restore"]

    def test_degrade_scales_fabric_port_rates(self):
        net = mk_packet()
        sw, idx = net.topology.fabric_ports[0]
        nominal = net.topology.node(sw).ports[idx].rate_bps
        plan = FaultPlan().degrade(0.001, 0.002, factor=0.25)
        chaos = ChaosInjector(net, plan)
        chaos.tick(0.001)
        assert net.topology.node(sw).ports[idx].rate_bps == nominal * 0.25
        chaos.tick(0.002)
        assert net.topology.node(sw).ports[idx].rate_bps == nominal


class TestTelemetryFaults:
    def test_blackout_missing_hides_the_switch(self):
        net = mk_fluid()
        plan = FaultPlan().blackout("leaf0", 0.0, 1.0, mode="missing")
        chaos = ChaosInjector(net, plan)
        stats = net.queue_stats()
        seen = chaos.filter_stats(stats, 0.5)
        assert "leaf0" not in seen and "leaf1" in seen
        # ground truth untouched
        assert "leaf0" in stats

    def test_blackout_stale_replays_last_good_stats(self):
        net = mk_fluid()
        plan = FaultPlan().blackout("leaf0", 0.01, 1.0, mode="stale")
        chaos = ChaosInjector(net, plan)
        net.advance(0.001)
        before = chaos.filter_stats(net.queue_stats(), 0.001)["leaf0"]
        net.advance(0.02)
        seen = chaos.filter_stats(net.queue_stats(), 0.021)
        assert seen["leaf0"] is before

    def test_corrupt_replaces_one_field(self):
        net = mk_fluid()
        plan = FaultPlan().corrupt("leaf1", 0.0, 1.0,
                                   stats_field="avg_qlen_bytes",
                                   value=float("nan"))
        chaos = ChaosInjector(net, plan)
        stats = net.queue_stats()
        seen = chaos.filter_stats(stats, 0.5)
        assert np.isnan(seen["leaf1"].avg_qlen_bytes)
        assert not np.isnan(stats["leaf1"].avg_qlen_bytes)
        assert np.isfinite(seen["leaf1"].qlen_bytes)

    def test_crash_window_raises_through_wrap(self):
        net = mk_fluid()
        plan = FaultPlan().agent_crash("spine0", 0.0, 1.0)

        class Inner:
            def decide(self, stats, now, network):
                return {}

            def set_training(self, training):
                pass

        chaos = ChaosInjector(net, plan)
        wrapped = chaos.wrap(Inner())
        stats = net.queue_stats()
        with pytest.raises(AgentCrashError) as err:
            wrapped.decide(stats, 0.5, net)
        assert err.value.switch == "spine0"
        # outside the window it delegates
        assert wrapped.decide(stats, 1.5, net) == {}


class TestECNUnreliability:
    def test_drop_p_one_suppresses_application(self):
        net = mk_fluid()
        plan = FaultPlan().ecn_unreliable(0.0, 1.0, drop_p=1.0)
        chaos = ChaosInjector(net, plan)
        chaos.arm()
        try:
            before = net.queue_stats()["leaf0"].ecn
            net.set_ecn("leaf0", SECN2)
            assert net.queue_stats()["leaf0"].ecn == before
            assert [e.kind for e in chaos.log] == ["ecn-dropped"]
        finally:
            chaos.disarm()
        # disarmed: applications reach the switch again
        net.set_ecn("leaf0", SECN2)
        assert net.queue_stats()["leaf0"].ecn == SECN2

    def test_delay_defers_by_the_configured_lag(self):
        net = mk_fluid()
        plan = FaultPlan().ecn_unreliable(0.0, 1.0, drop_p=0.0,
                                          delay_p=1.0, delay=0.002)
        chaos = ChaosInjector(net, plan)
        chaos.arm()
        try:
            net.set_ecn("leaf1", SECN2)
            assert net.queue_stats()["leaf1"].ecn != SECN2
            chaos.tick(0.001)
            assert net.queue_stats()["leaf1"].ecn != SECN2
            chaos.tick(0.0025)
            assert net.queue_stats()["leaf1"].ecn == SECN2
            assert chaos.log.by_kind("ecn-delayed")
        finally:
            chaos.disarm()

    def test_outside_window_applies_immediately(self):
        net = mk_fluid()
        plan = FaultPlan().ecn_unreliable(0.5, 1.0, drop_p=1.0)
        chaos = ChaosInjector(net, plan)
        chaos.arm()
        try:
            net.set_ecn("leaf0", SECN2)     # now=0, before the window
            assert net.queue_stats()["leaf0"].ecn == SECN2
        finally:
            chaos.disarm()


class TestInjectorIdempotency:
    """Satellite fix: LinkFailureInjector under repeated/overlapping use."""

    def test_fail_fraction_twice_never_duplicates(self):
        net = mk_packet()
        inj = LinkFailureInjector(net, rng=np.random.default_rng(0))
        first = inj.fail_fraction(0.5)
        second = inj.fail_fraction(0.5)
        assert not set(first) & set(second)
        assert len(inj.failed) == len(set(inj.failed))
        for sw, idx in inj.failed:
            assert not net.topology.node(sw).ports[idx].up

    def test_fail_all_then_again_is_a_noop(self):
        net = mk_packet()
        inj = LinkFailureInjector(net, rng=np.random.default_rng(0))
        inj.fail_fraction(1.0)
        assert inj.fail_fraction(1.0) == []

    def test_restore_all_twice_is_safe(self):
        net = mk_packet()
        inj = LinkFailureInjector(net, rng=np.random.default_rng(0))
        chosen = inj.fail_fraction(0.5)
        assert inj.restore_all() == len(chosen)
        assert inj.restore_all() == 0
        assert inj.failed == []


class TestChaosDeterminism:
    def _cfg(self, seed=0):
        fabric = FluidConfig(n_spine=2, n_leaf=2, hosts_per_leaf=2,
                             host_rate_bps=10e9, spine_rate_bps=40e9)
        return ScenarioConfig(duration=0.02, pretrain_intervals=0,
                              seed=seed, fluid=fabric)

    def test_same_seed_same_faultlog_and_metrics(self):
        r1, log1, rec1 = run_chaos_scenario("secn1", self._cfg(), "extended")
        r2, log2, rec2 = run_chaos_scenario("secn1", self._cfg(), "extended")
        assert log1.signature() == log2.signature()
        assert r1.mean_reward == r2.mean_reward
        assert r1.rewards_per_switch == r2.rewards_per_switch
        assert rec1 == rec2

    def test_analysis_helpers_consume_the_log(self):
        result, log, _ = run_chaos_scenario("secn1", self._cfg(), "extended")
        summary = fault_summary(log)
        assert summary.get("link-down") == 1
        assert first_fault_time(log) is not None
        assert isinstance(quarantine_spans(log), list)
        assert result.fault_count == len(result.faults) > 0


class TestChaosCLI:
    def test_chaos_main_quick(self, capsys):
        rc = chaos_main(["--quick", "--seed", "0", "--duration", "0.02",
                         "--scheme", "secn1", "--matrix", "fig7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "link-down" in out and "chaos metrics" in out

    def test_dispatch_through_main(self, capsys):
        rc = repro_main(["chaos", "--quick", "--duration", "0.02",
                         "--scheme", "secn1", "--matrix", "fig7"])
        assert rc == 0
        assert "fault log" in capsys.readouterr().out

    def test_no_guard_flag_parses(self):
        args = __import__("repro.resilience.cli", fromlist=["x"]) \
            .build_chaos_parser().parse_args(["--no-guard"])
        assert args.no_guard is True
