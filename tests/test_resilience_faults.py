"""Tests for the chaos fault plan, injector, and the chaos CLI."""

import numpy as np
import pytest

from repro.analysis.experiments import ScenarioConfig, run_scenario
from repro.analysis.resilience import (fault_summary, first_fault_time,
                                       quarantine_spans)
from repro.cli import main as repro_main
from repro.fingerprint import fingerprint
from repro.netsim.ecn import SECN2
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.network import PacketNetwork
from repro.netsim.topology import TopologyConfig
from repro.obs import telemetry
from repro.resilience.faults import (AgentCrashError, ChaosInjector,
                                     FaultPlan, FaultSpec)
from repro.resilience.cli import chaos_main


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
        for fraction in (0.0, 1.5):
            with pytest.raises(ValueError, match="fraction"):
                FaultPlan().link_down(0.0, fraction)
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

    @pytest.mark.parametrize("make", [mk_fluid, mk_packet],
                             ids=["fluid", "packet"])
    def test_set_ecn_all_passes_through_chaos(self, make):
        """A whole-fabric write (a static scheme, the serve plane's
        fallback) is one ``set_ecn`` per switch, so chaos and the
        ``netsim.ecn_set`` counter see every one of them."""
        net = make()
        before = {n: st.ecn for n, st in net.queue_stats().items()}
        chaos = ChaosInjector(net, FaultPlan().ecn_unreliable(
            0.0, 1.0, drop_p=1.0))
        chaos.arm()
        try:
            net.set_ecn_all(SECN2)
        finally:
            chaos.disarm()
        assert {n: st.ecn for n, st in net.queue_stats().items()} == before
        assert [e.switch for e in chaos.log] == net.switch_names()
        assert {e.kind for e in chaos.log} == {"ecn-dropped"}
        with telemetry() as (reg, _):
            net.set_ecn_all(SECN2)
        assert sum(v for (name, _), v in reg.counters.items()
                   if name == "netsim.ecn_set") == len(net.switch_names())
        assert {st.ecn for st in net.queue_stats().values()} == {SECN2}

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
    """Repeated or overlapping link failures on the packet simulator."""

    @staticmethod
    def _down(net):
        return [(sw, i) for sw, i in net.topology.fabric_ports
                if not net.topology.node(sw).ports[i].up]

    def test_fail_fraction_twice_never_duplicates(self):
        net = mk_packet()
        rng = np.random.default_rng(0)
        # 4 links: each call fails round(0.5 * 4) = 2 of those still up
        assert net.fail_uplinks(0.5, rng=rng) == 2
        assert net.fail_uplinks(0.5, rng=rng) == 2
        assert len(self._down(net)) == len(net.topology.fabric_ports)

    def test_fail_all_then_again_is_a_noop(self):
        net = mk_packet()
        assert net.fail_uplinks(1.0, rng=np.random.default_rng(0)) == 4
        assert net.fail_uplinks(1.0, rng=np.random.default_rng(0)) == 0

    def test_restore_all_twice_is_safe(self):
        net = mk_packet()
        net.fail_uplinks(0.5, rng=np.random.default_rng(0))
        net.restore_uplinks()
        assert self._down(net) == []
        net.restore_uplinks()
        assert self._down(net) == []


class TestChaosDeterminism:
    def _cfg(self, seed=0):
        fabric = FluidConfig(n_spine=2, n_leaf=2, hosts_per_leaf=2,
                             host_rate_bps=10e9, spine_rate_bps=40e9)
        plan = FaultPlan.extended(0.02, FluidNetwork(fabric).switch_names())
        return ScenarioConfig(duration=0.02, pretrain_intervals=0,
                              seed=seed, fluid=fabric,
                              faults=tuple(plan.specs))

    def test_same_seed_same_faultlog_and_metrics(self):
        r1 = run_scenario("secn1", self._cfg())
        r2 = run_scenario("secn1", self._cfg())
        assert [e.signature() for e in r1.faults] == \
            [e.signature() for e in r2.faults]
        assert r1.utilization_trace == r2.utilization_trace
        assert fingerprint(r1) == fingerprint(r2)

    def test_analysis_helpers_consume_the_log(self):
        result = run_scenario("secn1", self._cfg())
        summary = fault_summary(result.faults)
        assert summary.get("link-down") == 1
        assert first_fault_time(result.faults) is not None
        assert isinstance(quarantine_spans(result.faults), list)
        assert summary.get("quarantine", 0) >= 1


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
