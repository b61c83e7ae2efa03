"""Control-plane behaviour: the lifecycle invariants under chaos.

The headline test proves the acceptance property end to end: with a
chaos plan active, a shadow policy's proposed actions are recorded but
NEVER applied to the fabric, a deadline breach triggers the static
fallback in the same tick, a gate breach rolls the canary back
automatically, and all of it is visible in the health snapshot and the
obs event stream.
"""

import math
import time

import numpy as np
import pytest

from repro import obs
from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.devtools.sanitize import ECN_KMAX_CEILING_BYTES
from repro.netsim.ecn import SECN1, ECNConfig
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.network import PacketNetwork
from repro.netsim.shard import ShardedFluidNetwork
from repro.netsim.topology import TopologyConfig
from repro.resilience.faults import ChaosInjector, FaultPlan
from repro.resilience.guard import config_in_bounds
from repro.rl.checkpoint import CheckpointManager
from repro.serve.gate import (GateConfig, GateDecision, PromotionGate,
                              WindowSummary)
from repro.serve.lifecycle import PolicyRegistry
from repro.serve.plane import ControlPlane, ServeConfig
from repro.serve.supervisor import Supervisor
from repro.traffic.generator import PoissonTrafficGenerator, TrafficConfig
from repro.traffic.workloads import WEB_SEARCH

#: sentinel Kmin no real scheme would propose — greppable in proposals.
SENTINEL_KMIN = 77_777


def tiny_factory():
    return FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                    host_rate_bps=10e9,
                                    spine_rate_bps=40e9), seed=0)


def fast_gate(**over):
    base = dict(min_shadow_ticks=2, canary_ticks=1000, eval_min_ticks=2,
                cooldown_ticks=5, window_ticks=10,
                canary_requires_ready=False)
    base.update(over)
    return PromotionGate(GateConfig(**base))


def fast_config(**over):
    base = dict(decide_budget_s=0.5, degraded_hold_ticks=3,
                reload_every_ticks=0)
    base.update(over)
    return ServeConfig(**base)


def make_plane(chaos_factory=None, gate=None, config=None):
    plane = ControlPlane(tiny_factory, config=config or fast_config(),
                         gate=gate or fast_gate(),
                         chaos_factory=chaos_factory)
    plane.sleep = lambda _s: None            # retries never wall-sleep
    return plane


class SentinelController:
    """Proposes an unmistakable config for every switch, every tick."""

    def __init__(self, kmin=SENTINEL_KMIN):
        self.cfg = ECNConfig(kmin, kmin + 1_000, 0.5)
        self.decides = 0

    def set_training(self, training):
        pass

    def decide(self, stats, now, network):
        self.decides += 1
        for s in stats:
            network.set_ecn(s, self.cfg)
        return {s: self.cfg for s in stats}


class SlowController(SentinelController):
    """Overruns any reasonable decide budget."""

    def __init__(self, sleep_s=0.2):
        super().__init__()
        self.sleep_s = sleep_s

    def decide(self, stats, now, network):
        time.sleep(self.sleep_s)
        return super().decide(stats, now, network)


class RaisingController(SentinelController):
    """Raises an unattributed error on every call; the guard swallows it."""

    def decide(self, stats, now, network):
        self.decides += 1
        raise RuntimeError("policy bug")


class OutOfBoundsWriter(SentinelController):
    """Writes a Kmax above the guard ceiling and returns nothing, so
    only the buffered writes show the fault."""

    def __init__(self):
        super().__init__()
        self.cfg = ECNConfig(10_000, 2 * ECN_KMAX_CEILING_BYTES, 0.5)

    def decide(self, stats, now, network):
        super().decide(stats, now, network)
        return {}


class SpacedMissController(SentinelController):
    """Overruns its budget only on the given (1-based) calls."""

    def __init__(self, miss_calls, sleep_s=0.1):
        super().__init__(kmin=10_000)
        self.miss_calls = set(miss_calls)
        self.sleep_s = sleep_s
        self.calls = 0

    def decide(self, stats, now, network):
        self.calls += 1
        if self.calls in self.miss_calls:
            time.sleep(self.sleep_s)
        return super().decide(stats, now, network)


#: one controller per way a decide can be faulty: late, crashed (the
#: guard logs a ``controller-error`` and returns nothing), or writing
#: out-of-bounds configs it never returns.
FAULTY = pytest.mark.parametrize("make_faulty", [
    lambda: SlowController(sleep_s=0.2), RaisingController,
    OutOfBoundsWriter], ids=["slow", "raises", "oob_writes"])


def spy_writes(plane):
    """Intercept the real fabric's actuator surface; returns the log."""
    applied = []
    net = plane.net
    orig_set, orig_all = net.set_ecn, net.set_ecn_all

    def set_ecn(switch, config):
        applied.append((switch, config))
        return orig_set(switch, config)

    def set_ecn_all(config):
        applied.append(("*", config))
        return orig_all(config)

    net.set_ecn = set_ecn
    net.set_ecn_all = set_ecn_all
    return applied


# ----------------------------------------------------------- the invariant
class TestShadowInvariantUnderChaos:
    def test_shadow_actions_never_reach_fabric(self):
        def chaos_factory(net):
            sw = sorted(net.switch_names())
            plan = (FaultPlan()
                    .agent_crash(sw[0], 0.005, 0.015)
                    .corrupt(sw[1 % len(sw)], 0.006, 0.012,
                             value=float("nan")))
            return ChaosInjector(net, plan)

        registry, tracer = obs.enable()
        try:
            plane = make_plane(chaos_factory=chaos_factory)
            applied = spy_writes(plane)
            shadow = SentinelController()
            plane.register("sentinel", shadow)
            states = []
            for _ in range(40):
                plane.tick()
                states.append(plane.health)

            # The shadow decided and proposed — visibly.
            rec = plane.registry.records["sentinel"]
            assert shadow.decides > 0
            assert rec.shadow_ticks > 0
            assert any(kmin == SENTINEL_KMIN
                       for _, _, kmin, _, _ in rec.proposal_log)

            # ...but not one proposal reached the fabric.
            assert all(cfg.kmin_bytes != SENTINEL_KMIN
                       for _, cfg in applied)
            assert "shadow" not in plane.applied_by
            assert plane.applied_by["canary"] == 0

            # Chaos really fired, and health said so before recovering.
            assert registry.counter_value("faults", kind="agent-crash") > 0
            assert "degraded" in states
            assert states[-1] == "ready"

            # All of it is on the obs event stream.
            names = tracer.names()
            assert "serve.register" in names
            assert any(n.startswith("fault.") for n in names)
            snap = plane.health_snapshot()
            assert snap["status"] == "ready"
            assert snap["last_fault_tick"] is not None
            plane.close()
        finally:
            obs.disable()


# ------------------------------------------------------- deadline fallback
class TestDeadlineFallback:
    def test_breach_applies_static_fallback_same_tick(self):
        plane = make_plane(config=fast_config(decide_budget_s=0.02))
        applied = spy_writes(plane)
        slow = SlowController(sleep_s=0.2)
        plane.register("slow", slow)
        plane.promote("slow", force=True)

        before = len(applied)
        out = plane.tick()
        assert out["acting"] == "fallback"
        # The very same tick wrote the safe config to the fabric.
        new = applied[before:]
        assert any(sw == "*" and cfg == SECN1 for sw, cfg in new)
        assert plane.applied_by["fallback"] == 1
        rec = plane.registry.records["slow"]
        assert rec.strikes == 1 and rec.faults == 1
        assert plane.health == "degraded"
        plane.close()

    @staticmethod
    def _three_fallback_ticks(plane, applied):
        """Three ticks, each one a same-tick SECN1 fallback."""
        for i in range(3):
            before = len(applied)
            out = plane.tick()
            assert out["acting"] == "fallback"
            assert ("*", SECN1) in applied[before:]
            assert plane.applied_by["fallback"] == i + 1
        # No faulty decide's write ever reached the fabric.
        assert all(config_in_bounds(cfg) and cfg.kmin_bytes != SENTINEL_KMIN
                   for _, cfg in applied)

    @FAULTY
    def test_three_strikes_rolls_canary_back(self, make_faulty):
        plane = make_plane(config=fast_config(decide_budget_s=0.02))
        applied = spy_writes(plane)
        plane.register("bad", make_faulty())
        plane.promote("bad", force=True)
        self._three_fallback_ticks(plane, applied)
        rec = plane.registry.records["bad"]
        assert rec.stage == "shadow"          # rolled back
        assert rec.rollbacks == 1
        assert rec.cooldown_until > 0
        assert plane.registry.canary_name is None
        assert plane.rollbacks_total == 1
        assert plane.breaches_total == 3
        # The incumbent (static) is acting again.
        out = plane.tick()
        assert out["acting"] in ("incumbent", "fallback")
        plane.close()

    @FAULTY
    def test_three_strikes_demotes_incumbent_to_static(self, make_faulty):
        plane = make_plane(config=fast_config(decide_budget_s=0.02))
        applied = spy_writes(plane)
        plane.register("bad", make_faulty())
        plane.promote("bad", force=True)
        plane.registry.complete_promotion(tick=0)
        assert plane.registry.incumbent_name == "bad"
        self._three_fallback_ticks(plane, applied)
        assert plane.registry.incumbent_name == PolicyRegistry.STATIC
        assert plane.registry.records["bad"].stage == "shadow"
        assert plane.breaches_total == 3
        plane.close()

    def test_spaced_misses_leave_incumbent_in_place(self):
        # Misses on ticks 9, 19 and 29 of 40 are three strikes, but never
        # three in a row: each clean decide in between clears them.
        plane = make_plane(config=fast_config(decide_budget_s=0.02))
        plane.register("spaced", SpacedMissController({10, 20, 30}))
        plane.promote("spaced", force=True)
        plane.registry.complete_promotion(tick=0)
        acting = [plane.tick()["acting"] for _ in range(40)]
        assert [t for t, a in enumerate(acting) if a == "fallback"] == \
            [9, 19, 29]
        rec = plane.registry.records["spaced"]
        assert plane.registry.incumbent_name == "spaced"
        assert rec.stage == "promoted"
        assert rec.faults == 3 and rec.strikes == 0
        assert plane.breaches_total == 3
        plane.close()

    @pytest.mark.parametrize("incumbent", [False, True],
                             ids=["canary_rollback", "incumbent_demotion"])
    def test_struck_out_policy_decides_once_in_its_last_tick(self,
                                                             incumbent):
        # The strike that sends the acting policy back to shadow must not
        # let it be scored again, as a shadow, on the same telemetry.
        plane = make_plane(gate=fast_gate(max_strikes=2))
        bad = OutOfBoundsWriter()
        plane.register("bad", bad)
        plane.promote("bad", force=True)
        if incumbent:
            plane.registry.complete_promotion(tick=0)
        plane.tick()
        decides = bad.decides
        plane.tick()                          # the second strike
        rec = plane.registry.records["bad"]
        assert rec.stage == "shadow"
        assert bad.decides == decides + 1
        assert rec.faults == 2 and rec.strikes == 0
        # As a shadow it starts a fresh count: one strike, not suspended.
        plane.tick()
        assert rec.stage == "shadow" and rec.strikes == 1
        plane.close()


# ------------------------------------------------------------- gate actions
class _BreachingGate:
    def __init__(self):
        self.config = GateConfig(min_shadow_ticks=1, eval_min_ticks=1,
                                 cooldown_ticks=5, window_ticks=5,
                                 canary_requires_ready=False)

    def evaluate(self, baseline, canary):
        return GateDecision(breach=True, reasons=["stub: always regress"],
                            baseline=baseline, canary=canary)


class TestGateDrivenLifecycle:
    def test_gate_breach_rolls_back_automatically(self):
        plane = make_plane(gate=_BreachingGate())
        plane.register("good", SentinelController(kmin=10_000))
        plane.promote("good", force=True)
        plane.tick()
        rec = plane.registry.records["good"]
        assert rec.stage == "shadow"
        assert rec.rollbacks == 1
        assert "regress" in (rec.last_error or "")
        assert plane.last_gate_decision["breach"] is True
        plane.close()

    def test_surviving_canary_is_promoted(self):
        gate = fast_gate(canary_ticks=3, eval_min_ticks=100)
        plane = make_plane(gate=gate)
        plane.register("good", SentinelController(kmin=10_000))
        plane.promote("good", force=True)
        for _ in range(4):
            plane.tick()
        assert plane.registry.incumbent_name == "good"
        assert plane.registry.records["good"].stage == "promoted"
        assert plane.promotions_total == 1
        plane.close()

    def test_canary_benched_while_degraded_when_required(self):
        gate = fast_gate(canary_requires_ready=True)
        plane = make_plane(gate=gate)
        plane.register("good", SentinelController(kmin=10_000))
        plane.promote("good", force=True)
        plane.last_fault_tick = plane.tick_count   # simulate a live incident
        out = plane.tick()
        assert plane.health == "degraded"
        assert out["acting"] == "incumbent"        # not the canary
        assert plane.applied_by["canary"] == 0
        plane.close()


# --------------------------------------------------------- gate boundaries
class TestGateWindowBoundary:
    """Negative-path boundary semantics of the promotion gate: the gate
    withholds judgment until the canary window holds exactly
    ``eval_min_ticks`` samples, and every threshold is strict — a
    canary sitting *exactly* on a limit is not a breach."""

    BASELINE = WindowSummary(ticks=50, queue_mean_bytes=10_000.0,
                             util_mean=0.8, fct_mean_s=1e-3, fct_count=100)

    def _gate(self, **over):
        base = dict(eval_min_ticks=5, queue_tolerance=0.25,
                    queue_slack_bytes=1_000.0, fct_tolerance=0.25,
                    fct_slack_s=1e-4, util_tolerance=0.10)
        base.update(over)
        return PromotionGate(GateConfig(**base))

    def _terrible(self, ticks):
        return WindowSummary(ticks=ticks, queue_mean_bytes=1e9,
                             util_mean=0.0, fct_mean_s=10.0, fct_count=ticks)

    def test_no_judgment_one_tick_short_of_eval_min(self):
        decision = self._gate().evaluate(self.BASELINE, self._terrible(4))
        assert decision.breach is False
        assert decision.reasons == []

    def test_judgment_starts_exactly_at_eval_min(self):
        decision = self._gate().evaluate(self.BASELINE, self._terrible(5))
        assert decision.breach is True
        # all three thresholds are torched by the terrible window
        assert len(decision.reasons) == 3

    def test_queue_exactly_at_limit_is_not_a_breach(self):
        gate = self._gate()
        cfg = gate.config
        limit = (self.BASELINE.queue_mean_bytes * (1.0 + cfg.queue_tolerance)
                 + cfg.queue_slack_bytes)
        at = WindowSummary(ticks=5, queue_mean_bytes=limit, util_mean=0.8,
                           fct_mean_s=1e-3, fct_count=5)
        assert gate.evaluate(self.BASELINE, at).breach is False
        over = WindowSummary(ticks=5,
                             queue_mean_bytes=math.nextafter(limit,
                                                             math.inf),
                             util_mean=0.8, fct_mean_s=1e-3, fct_count=5)
        decision = gate.evaluate(self.BASELINE, over)
        assert decision.breach is True
        assert len(decision.reasons) == 1 and "queue" in decision.reasons[0]

    def test_fct_exactly_at_limit_is_not_a_breach(self):
        gate = self._gate()
        cfg = gate.config
        limit = (self.BASELINE.fct_mean_s * (1.0 + cfg.fct_tolerance)
                 + cfg.fct_slack_s)
        at = WindowSummary(ticks=5, queue_mean_bytes=10_000.0, util_mean=0.8,
                           fct_mean_s=limit, fct_count=5)
        assert gate.evaluate(self.BASELINE, at).breach is False
        over = WindowSummary(ticks=5, queue_mean_bytes=10_000.0,
                             util_mean=0.8,
                             fct_mean_s=math.nextafter(limit, math.inf),
                             fct_count=5)
        decision = gate.evaluate(self.BASELINE, over)
        assert decision.breach is True
        assert len(decision.reasons) == 1 and "fct" in decision.reasons[0]

    def test_util_exactly_at_floor_is_not_a_breach(self):
        gate = self._gate()
        cfg = gate.config
        floor = self.BASELINE.util_mean * (1.0 - cfg.util_tolerance)
        at = WindowSummary(ticks=5, queue_mean_bytes=10_000.0,
                           util_mean=floor, fct_mean_s=1e-3, fct_count=5)
        assert gate.evaluate(self.BASELINE, at).breach is False
        under = WindowSummary(ticks=5, queue_mean_bytes=10_000.0,
                              util_mean=math.nextafter(floor, -math.inf),
                              fct_mean_s=1e-3, fct_count=5)
        decision = gate.evaluate(self.BASELINE, under)
        assert decision.breach is True
        assert (len(decision.reasons) == 1
                and "utilization" in decision.reasons[0])

    def test_fct_skipped_when_no_flows_finished(self):
        # fct_mean_s None on either side disables only the FCT check.
        gate = self._gate()
        canary = WindowSummary(ticks=5, queue_mean_bytes=10_000.0,
                               util_mean=0.8, fct_mean_s=None, fct_count=0)
        assert gate.evaluate(self.BASELINE, canary).breach is False
        no_fct_baseline = WindowSummary(ticks=50, queue_mean_bytes=10_000.0,
                                        util_mean=0.8, fct_mean_s=None,
                                        fct_count=0)
        slow = WindowSummary(ticks=5, queue_mean_bytes=10_000.0,
                             util_mean=0.8, fct_mean_s=10.0, fct_count=5)
        assert gate.evaluate(no_fct_baseline, slow).breach is False


# --------------------------------------------------------- telemetry retry
class TestTelemetryRetry:
    def test_transient_failures_are_retried(self):
        plane = make_plane()
        calls = {"n": 0}
        orig = plane.net.queue_stats

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise OSError("telemetry bus glitch")
            return orig()

        plane.net.queue_stats = flaky
        out = plane.tick()
        assert out["acting"] == "incumbent"
        assert plane.telemetry_failures == 0
        assert calls["n"] == 3
        plane.close()

    def test_dead_telemetry_is_a_fallback_tick(self):
        plane = make_plane()
        applied = spy_writes(plane)

        def dead():
            raise OSError("telemetry bus down")

        plane.net.queue_stats = dead
        out = plane.tick()
        assert out["acting"] is None
        assert plane.telemetry_failures == 1
        assert any(sw == "*" for sw, _ in applied)
        assert plane.health == "degraded"
        plane.close()


# ------------------------------------------------------------ the one tick
def _within(child, parent):
    return (parent.start <= child.start
            and child.start + child.duration_s
            <= parent.start + parent.duration_s)


class TestTickIsADriveInterval:
    def test_one_tick_records_the_drive_spans_and_interval(self):
        plane = make_plane()
        plane.register("p", SentinelController(kmin=10_000))
        with obs.telemetry() as (reg, tracer):
            plane.tick()
            (tick,) = tracer.by_name("loop.tick")
            for name in ("net.advance", "net.queue_stats",
                         "controller.decide"):
                (span,) = tracer.by_name(name)
                assert _within(span, tick), name
            assert reg.counter_value("loop.intervals") == 1
        plane.close()


def _loaded(make_net):
    """A factory of ``make_net()`` fabrics carrying Web Search traffic."""
    def factory():
        net = make_net()
        gen = PoissonTrafficGenerator(net.host_names(), WEB_SEARCH,
                                      rng=np.random.default_rng(0))
        net.start_flows(gen.generate(TrafficConfig(
            load=0.6, duration=0.02,
            host_rate_bps=net.config.host_rate_bps)))
        return net
    return factory


SUBSTRATES = pytest.mark.parametrize("factory, n_switches", [
    (_loaded(lambda: ShardedFluidNetwork(FatTreeConfig.small(), seed=0)), 10),
    (_loaded(lambda: PacketNetwork(TopologyConfig(), seed=0)), 6),
], ids=["fat_tree", "packet"])


class TestEverySubstrate:
    @SUBSTRATES
    def test_pet_goes_shadow_canary_promoted(self, factory, n_switches):
        plane = ControlPlane(factory, config=fast_config(),
                             gate=fast_gate(canary_ticks=3,
                                            eval_min_ticks=100))
        assert len(plane.switches) == n_switches
        pet = PETController(plane.switches, PETConfig.fast(seed=0))
        plane.register("pet", pet)
        plane.run_ticks(2)
        rec = plane.registry.records["pet"]
        assert rec.shadow_ticks == 2 and rec.faults == 0
        plane.promote("pet")
        acting = [plane.tick()["acting"] for _ in range(4)]
        assert acting == ["canary"] * 3 + ["incumbent"]
        assert plane.registry.incumbent_name == "pet"
        assert rec.stage == "promoted" and rec.faults == 0
        assert plane.applied_by["canary"] == 3
        assert plane.health == "ready"
        plane.close()

    @SUBSTRATES
    def test_dead_telemetry_is_a_fallback_tick(self, factory, n_switches):
        plane = ControlPlane(factory, config=fast_config(), gate=fast_gate())
        plane.sleep = lambda _s: None
        pet = PETController(plane.switches, PETConfig.fast(seed=0))
        plane.register("pet", pet)
        plane.tick()
        applied = spy_writes(plane)

        def dead():
            raise OSError("telemetry bus down")

        plane.net.queue_stats = dead
        shadow_ticks = plane.registry.records["pet"].shadow_ticks
        out = plane.tick()
        assert out["acting"] is None and plane.last_stats is None
        assert ("*", SECN1) in applied
        assert all(cfg == SECN1 for _, cfg in applied)
        assert plane.telemetry_failures == 1
        assert plane.applied_by["fallback"] == 1
        assert plane.registry.records["pet"].shadow_ticks == shadow_ticks
        assert plane.health == "degraded"
        plane.close()


# ------------------------------------------------------------- hot reload
class _ReloadableController(SentinelController):
    def __init__(self):
        super().__init__(kmin=10_000)
        self.loaded = []

    def load_state_dict(self, state):
        self.loaded.append(state["tag"])


class TestHotReload:
    def test_reload_skips_torn_checkpoint_and_keeps_weights(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), keep=3)
        mgr.save({"tag": 1.0}, step=1)
        plane = make_plane()
        ctrl = _ReloadableController()
        plane.register("p", ctrl, checkpoints=mgr, loaded_step=1)

        # A newer checkpoint lands torn: truncated mid-write.
        mgr.save({"tag": 2.0}, step=2)
        path2 = dict(mgr.checkpoints())[2]
        with open(path2, "wb") as f:
            f.write(b"torn")
        plane.reload_policy("p")
        rec = plane.registry.records["p"]
        assert rec.loaded_step == 1            # old weights kept serving
        assert ctrl.loaded == []
        assert rec.reloads == 0

        # A complete newer checkpoint is picked up on the next poll.
        mgr.save({"tag": 3.0}, step=3)
        plane.reload_policy("p")
        assert rec.loaded_step == 3
        assert ctrl.loaded == [3.0]
        assert rec.reloads == 1
        assert rec.reload_failures == 0
        plane.close()

    def test_periodic_reload_runs_from_tick(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), keep=3)
        mgr.save({"tag": 5.0}, step=5)
        plane = make_plane(config=fast_config(reload_every_ticks=2))
        ctrl = _ReloadableController()
        plane.register("p", ctrl, checkpoints=mgr, loaded_step=None)
        plane.tick()                            # tick 0: no reload check
        plane.tick()
        plane.tick()                            # tick 2: reload fires
        assert plane.registry.records["p"].loaded_step == 5
        assert ctrl.loaded == [5.0]
        plane.close()


# ------------------------------------------------------------ shadow faults
class TestShadowSuspension:
    @FAULTY
    def test_persistently_faulty_shadow_is_suspended(self, make_faulty):
        gate = fast_gate(max_strikes=2)
        plane = make_plane(config=fast_config(decide_budget_s=0.02),
                           gate=gate)
        plane.register("bad", make_faulty())
        rec = plane.registry.records["bad"]
        for _ in range(2):
            plane.tick()
            assert not plane.registry.eligible(
                "bad", min_shadow_ticks=gate.config.min_shadow_ticks,
                tick=plane.tick_count)[0]
        assert rec.stage == "suspended"
        assert rec.faults == 2 and rec.clean_streak == 0
        assert rec.shadow_ticks == 2
        plane.close()

    def test_out_of_bounds_shadow_proposal_is_a_fault(self):
        plane = make_plane()
        bad = SentinelController()
        # Above the guard ceiling: constructible, but never applicable.
        bad.cfg = ECNConfig(10_000, 2 * ECN_KMAX_CEILING_BYTES, 0.5)
        plane.register("bad", bad)
        plane.tick()
        rec = plane.registry.records["bad"]
        assert rec.faults == 1
        assert rec.clean_streak == 0
        assert "out-of-bounds" in rec.last_error
        plane.close()


# ------------------------------------------------------------ manual + misc
class TestPlaneOps:
    def test_manual_action_bounds_checked(self):
        plane = make_plane()
        applied = spy_writes(plane)
        plane.manual_action(None, ECNConfig(5_000, 50_000, 0.1))
        assert plane.applied_by["manual"] == 1
        assert applied
        with pytest.raises(ValueError):
            plane.manual_action(None, ECNConfig(50_000, 5_000, 0.1))
        with pytest.raises(ValueError):
            plane.manual_action("no-such-switch",
                                ECNConfig(5_000, 50_000, 0.1))
        plane.close()

    def test_reset_rebuilds_fabric_keeps_registry(self):
        plane = make_plane()
        plane.register("p", SentinelController(kmin=10_000))
        plane.run_ticks(5)
        old_net = plane.net
        plane.reset()
        assert plane.net is not old_net
        assert "p" in plane.registry.records
        plane.tick()                            # still serves
        plane.close()

    def test_negative_reload_interval_rejected(self):
        # t % -1 == 0 would hot-reload on every tick from tick 1.
        with pytest.raises(ValueError, match="reload_every_ticks"):
            ServeConfig(reload_every_ticks=-1)

    def test_negative_degraded_hold_rejected(self):
        # A negative hold would keep health from ever turning degraded.
        with pytest.raises(ValueError, match="degraded_hold_ticks"):
            ServeConfig(degraded_hold_ticks=-1)

    def test_health_starts_starting_then_ready(self):
        plane = make_plane()
        assert plane.health == "starting"
        plane.tick()
        assert plane.health == "ready"
        plane.close()

    def test_snapshots_are_json_safe(self):
        import json
        plane = make_plane()
        plane.register("p", SentinelController(kmin=10_000))
        plane.run_ticks(2)
        json.dumps(plane.health_snapshot())
        json.dumps(plane.state_snapshot())
        plane.close()


# ------------------------------------------------------------- supervisor
class _CrashyPlane:
    """Stub plane whose tick dies on a scheduled set of calls."""

    def __init__(self, die_on=frozenset()):
        self.calls = 0
        self.die_on = set(die_on)
        self.failed_reason = None
        self.health = "ready"

    def tick(self):
        self.calls += 1
        if self.calls in self.die_on:
            raise RuntimeError(f"scripted death #{self.calls}")

    def mark_failed(self, reason):
        self.failed_reason = reason
        self.health = "failed"


def _wait_until(pred, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(0.005)
    return False


class TestSupervisor:
    def test_watchdog_restarts_dead_rollout(self):
        plane = _CrashyPlane(die_on={3})
        sup = Supervisor(plane, tick_sleep_s=0.001, max_restarts=3,
                         watchdog_interval_s=0.01)
        sup.start()
        try:
            assert _wait_until(lambda: sup.restarts >= 1)
            assert _wait_until(lambda: plane.calls > 10)
            assert plane.failed_reason is None
            assert "scripted death" in sup.last_error
        finally:
            sup.stop()
        status = sup.status()
        assert status["restarts"] == 1
        assert status["ticks"] > 0

    def test_restart_budget_exhaustion_marks_failed(self):
        plane = _CrashyPlane(die_on=set(range(1, 100)))   # dies every tick
        sup = Supervisor(plane, tick_sleep_s=0.0, max_restarts=2,
                         watchdog_interval_s=0.005)
        sup.start()
        try:
            assert _wait_until(lambda: plane.failed_reason is not None)
            assert sup.restarts == 2
            assert "died" in plane.failed_reason
        finally:
            sup.stop()

    def test_stop_is_idempotent_and_joins(self):
        plane = _CrashyPlane()
        sup = Supervisor(plane, tick_sleep_s=0.001,
                         watchdog_interval_s=0.01).start()
        assert _wait_until(lambda: plane.calls > 0)
        sup.stop()
        sup.stop()
        assert not sup.status()["running"]
