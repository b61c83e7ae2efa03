"""The serving control plane: one tick loop, many policies, one fabric.

:class:`ControlPlane` owns a simulated fabric and ticks it through
:func:`repro.core.training.drive`, the loop every batch experiment runs,
but built to stay up: every registered policy runs behind
the resilience guard, every ``decide`` is deadline-bounded on a worker
thread against a :class:`~repro.serve.lifecycle.BufferedNetwork` (so a
late or shadow decide can never mutate the fabric), telemetry reads and
checkpoint hot-reloads retry with exponential backoff, and the
shadow → canary → promoted lifecycle with its no-regression gate and
automatic rollback decides *who* acts.

Per tick, one ``drive`` interval with the plane as its network and its
controller, then the plane's own upkeep::

    chaos faults fire → fabric advances Δt → telemetry read (retried;
      exhausted: static safe ECN, and the interval ends here)
    → chaos poisons the copy controllers see → acting policy decides
      (deadline-bounded, buffered) → clean: buffer flushed to fabric;
      faulty: buffer dropped, static safe ECN applied *this tick*
    → every other shadow scores the same telemetry into its own buffer
      (never flushed) → each faulty decide is one strike
    → true fabric metrics feed the gate windows
    → gate verdict (rollback / promotion) → periodic checkpoint
      hot-reload → health re-derived → obs export.

Everything observable lands in :mod:`repro.obs` (``serve.*`` gauges,
counters, and tracer events) and in the JSON snapshots the HTTP
endpoints serve.
"""

from __future__ import annotations

import threading
import time
from contextlib import suppress
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.baselines.static_ecn import secn1
from repro.core.training import drive
from repro.netsim.ecn import SECN1, ECNConfig
from repro.obs import get_registry, get_tracer
from repro.resilience.guard import ResilientController, config_in_bounds
from repro.resilience.log import FaultLog
from repro.rl.checkpoint import CheckpointCorruptError
from repro.serve.backoff import RetryExhausted, RetryPolicy, retry_call
from repro.serve.deadline import DeadlineDecider
from repro.serve.gate import GateConfig, MetricWindow, PromotionGate
from repro.serve.lifecycle import BufferedNetwork, PolicyRegistry

__all__ = ["ServeConfig", "ControlPlane", "HEALTH_STATES"]

#: plane health states, in escalation order.
HEALTH_STATES = ("starting", "ready", "degraded", "failed")


#: backoff for telemetry reads.
_TELEMETRY_RETRY = RetryPolicy(attempts=3, base_delay_s=0.005)
#: backoff for checkpoint hot-reload (corrupt files re-read).
_RELOAD_RETRY = RetryPolicy(attempts=3, base_delay_s=0.01)


@dataclass
class ServeConfig:
    """Control-plane knobs."""

    #: simulated seconds advanced per tick.
    delta_t: float = 1e-3
    #: wall-clock budget for one ``decide`` (acting or shadow).
    decide_budget_s: float = 0.25
    #: ticks health stays ``degraded`` after the last observed fault.
    degraded_hold_ticks: int = 25
    #: check registered checkpoint directories every N ticks (0: never).
    reload_every_ticks: int = 50

    def __post_init__(self) -> None:
        if self.delta_t <= 0.0:
            raise ValueError("delta_t must be positive")
        if self.decide_budget_s <= 0.0:
            raise ValueError("decide_budget_s must be positive")
        if self.degraded_hold_ticks < 0:
            raise ValueError("degraded_hold_ticks must be >= 0")
        if self.reload_every_ticks < 0:
            raise ValueError("reload_every_ticks must be >= 0 (0: never)")


class ControlPlane:
    """Supervised multi-policy control loop over one simulated fabric.

    Parameters
    ----------
    network_factory:
        Zero-argument callable building the fabric (e.g. a
        ``FluidNetwork`` with traffic loaded).  Called at construction
        and again on :meth:`reset`.
    config:
        :class:`ServeConfig`; defaults throughout.
    gate:
        :class:`~repro.serve.gate.PromotionGate`; a default-config gate
        when omitted.
    chaos_factory:
        Optional callable ``net -> ChaosInjector`` (already planned);
        the plane arms it against each fabric it builds, and wraps every
        registered policy's controller in its fault injector.
    """

    def __init__(self, network_factory: Callable[[], Any],
                 config: Optional[ServeConfig] = None,
                 gate: Optional[PromotionGate] = None,
                 chaos_factory: Optional[Callable[[Any], Any]] = None) -> None:
        self.config = config or ServeConfig()
        self.gate = gate or PromotionGate(GateConfig())
        self._network_factory = network_factory
        self._chaos_factory = chaos_factory
        self._lock = threading.RLock()
        #: injectable sleep shared by every retry (deterministic tests).
        self.sleep: Callable[[float], None] = time.sleep

        self.net = network_factory()
        self.switches: List[str] = list(self.net.switch_names())
        self.chaos = self._arm_chaos(self.net)

        #: raw (pre-guard) controllers by name, for re-wrapping on reset.
        self._inner: Dict[str, Any] = {}
        self.registry = PolicyRegistry(self._guard(secn1()))
        self._deciders: Dict[str, DeadlineDecider] = {}
        self._fault_log_len: Dict[str, int] = {}

        self.tick_count = 0
        #: the records the last tick read (None: it read none); ``/state``
        #: reports them, as a second collection would open a new interval
        self.last_stats: Optional[Dict[str, Any]] = None
        self._acting_src: Optional[str] = None
        self.health = "starting"
        self.failure_reason: Optional[str] = None
        self.last_fault_tick = -(10 ** 9)
        self.telemetry_failures = 0
        self.breaches_total = 0
        self.rollbacks_total = 0
        self.promotions_total = 0
        #: applied-action provenance; "shadow" is never a key.
        self.applied_by: Dict[str, int] = {
            "incumbent": 0, "canary": 0, "fallback": 0, "manual": 0}
        self.last_gate_decision: Optional[Dict[str, Any]] = None

        gcfg = self.gate.config
        self._baseline = MetricWindow(gcfg.window_ticks)
        self._canary_window = MetricWindow(gcfg.window_ticks)
        self._frozen_baseline = self._baseline.summary()
        self._fct_cursor = 0

    # -- wiring ---------------------------------------------------------------
    def _arm_chaos(self, net: Any) -> Any:
        if self._chaos_factory is None:
            return None
        return self._chaos_factory(net).arm()

    def _guard(self, inner: Any) -> ResilientController:
        """Wrap a raw controller in chaos (if armed) and the guard."""
        wrapped = self.chaos.wrap(inner) if self.chaos is not None else inner
        return ResilientController(wrapped, self.switches, log=FaultLog())

    def _decider(self, name: str) -> DeadlineDecider:
        """Per-policy decider: a wedged shadow never starves the others."""
        d = self._deciders.get(name)
        if d is None:
            d = self._deciders[name] = DeadlineDecider(name=f"serve-{name}")
        return d

    # -- registration & lifecycle ops ----------------------------------------
    def register(self, name: str, controller: Any, *,
                 checkpoints: Any = None,
                 loaded_step: Optional[int] = None) -> Dict[str, Any]:
        """Register a raw controller; it starts life in shadow."""
        with self._lock:
            if hasattr(controller, "set_training"):
                controller.set_training(False)
            rec = self.registry.register(
                name, self._guard(controller), tick=self.tick_count,
                checkpoints=checkpoints, loaded_step=loaded_step)
            self._inner[name] = controller
            self._event("serve.register", policy=name)
            return rec.snapshot()

    def promote(self, name: str, *, force: bool = False) -> Dict[str, Any]:
        """Shadow → canary; the gate takes it from there."""
        with self._lock:
            gcfg = self.gate.config
            rec = self.registry.promote_to_canary(
                name, tick=self.tick_count,
                min_shadow_ticks=gcfg.min_shadow_ticks, force=force)
            # Freeze the incumbent's baseline for the whole evaluation.
            self._frozen_baseline = self._baseline.summary()
            self._canary_window.clear()
            self._event("serve.canary_start", policy=name,
                        baseline_ticks=self._frozen_baseline.ticks)
            return rec.snapshot()

    def demote(self, *, reason: str = "manual") -> Dict[str, Any]:
        """Manual incumbent demotion: fall back to the static record."""
        with self._lock:
            rec = self.registry.demote_incumbent(
                tick=self.tick_count,
                cooldown_ticks=self.gate.config.cooldown_ticks, reason=reason)
            self._baseline.clear()
            self._event("serve.demote", policy=rec.name, reason=reason)
            return rec.snapshot()

    def manual_action(self, switch: Optional[str],
                      config: ECNConfig) -> Dict[str, Any]:
        """Operator override, bounds-checked like any policy proposal."""
        with self._lock:
            if not config_in_bounds(config):
                raise ValueError("configuration out of bounds")
            if switch is not None and switch not in self.switches:
                raise ValueError(f"unknown switch {switch!r}")
            if switch is None:
                self.net.set_ecn_all(config)
            else:
                self.net.set_ecn(switch, config)
            self.applied_by["manual"] += 1
            self._inc("serve.applied", source="manual")
            self._event("serve.manual_action", switch=switch or "*",
                        kmin=config.kmin_bytes, kmax=config.kmax_bytes)
            return {"applied": switch or "*"}

    def reload_policy(self, name: str) -> Dict[str, Any]:
        """Force one hot-reload attempt for a registered policy."""
        with self._lock:
            rec = self.registry.records.get(name)
            if rec is None:
                raise KeyError(f"unknown policy {name!r}")
            if rec.checkpoints is None:
                raise ValueError(f"{name} has no checkpoint source")
            self._hot_reload(rec)
            return rec.snapshot()

    def reset(self) -> None:
        """Rebuild the fabric (fresh traffic); lifecycle state survives."""
        with self._lock:
            if self.chaos is not None:
                self.chaos.disarm()
            self.net = self._network_factory()
            self.last_stats = None
            self.switches = list(self.net.switch_names())
            self.chaos = self._arm_chaos(self.net)
            # Re-wrap every controller against the new chaos plan; the
            # static record included.
            self.registry.records[PolicyRegistry.STATIC].controller = \
                self._guard(secn1())
            for name, inner in self._inner.items():
                self.registry.records[name].controller = self._guard(inner)
            self._fault_log_len.clear()
            self._baseline.clear()
            self._canary_window.clear()
            self._frozen_baseline = self._baseline.summary()
            self._fct_cursor = 0
            self._event("serve.reset", tick=self.tick_count)

    def mark_failed(self, reason: str) -> None:
        """Terminal health (the supervisor calls this when it gives up)."""
        with self._lock:
            self.health = "failed"
            self.failure_reason = reason
            self._event("serve.failed", reason=reason)

    # -- the tick -------------------------------------------------------------
    def tick(self) -> Dict[str, Any]:
        """One :func:`~repro.core.training.drive` interval, the plane its
        network and controller; then reload, health and export."""
        with self._lock:
            t = self.tick_count
            self._acting_src = None
            with suppress(RetryExhausted):      # queue_stats fell back
                drive(self.net, [(self, self, None, self.chaos)],
                      intervals=1, delta_t=self.config.delta_t)
            cfg = self.config
            if cfg.reload_every_ticks and t and t % cfg.reload_every_ticks == 0:
                self._reload_all()
            self.tick_count += 1
            self._refresh_health()
            self._export(t)
            return {"tick": t, "now": self.net.now, "health": self.health,
                    "acting": self._acting_src,
                    "incumbent": self.registry.incumbent_name,
                    "canary": self.registry.canary_name}

    def run_ticks(self, n: int) -> Dict[str, Any]:
        last: Dict[str, Any] = {}
        for _ in range(n):
            last = self.tick()
        return last

    # -- tick stages ----------------------------------------------------------
    @property
    def now(self) -> float:
        return self.net.now

    def queue_stats(self) -> Dict[str, Any]:
        """Fabric stats, retried; a dead telemetry path is a fault tick:
        SECN1 goes on and the re-raised exhaustion ends the tick."""
        self.last_stats = None
        try:
            self.last_stats = retry_call(
                self.net.queue_stats, policy=_TELEMETRY_RETRY,
                sleep=self.sleep)
        except RetryExhausted as exc:
            self.telemetry_failures += 1
            self._fallback(self.tick_count)
            self._inc("serve.telemetry_failures")
            self._event("serve.telemetry_failed", tick=self.tick_count,
                        error=type(exc.last).__name__ if exc.last else "?")
            raise
        return self.last_stats

    def decide(self, seen: Dict[str, Any], now: float, _net: Any) -> None:
        """The acting policy (flushed if clean, else the fallback), then
        the shadows, on the filtered ``seen``; then windows and gate."""
        t, canary = self.tick_count, self.registry.canary
        if canary is not None and (not self.gate.config.canary_requires_ready
                                   or self.health == "ready"):
            rec, source = canary, "canary"
        else:
            rec, source = self.registry.incumbent, "incumbent"
        buf, fault = self._decide(rec, seen, now, t)
        if fault is None:
            buf.flush()
            rec.record_proposals(t, buf.buffered)
            if source == "canary":
                rec.canary_ticks += 1
            self.applied_by[source] += 1
            self._inc("serve.applied", source=source)
        else:
            self._fallback(t)        # the buffer is dropped, never flushed
            source = "fallback"
        self._strike(rec, fault, t)
        self._acting_src = source
        self._score_shadows(rec, t, now, seen)
        self._push_metrics(self.last_stats, source)
        self._gate_verdict(t)

    def _fallback(self, t: int) -> None:
        """Static safe ECN (SECN1) on every switch, this tick."""
        self.net.set_ecn_all(SECN1)
        self.applied_by["fallback"] += 1
        self._inc("serve.applied", source="fallback")
        self.last_fault_tick = t

    def _decide(self, rec: Any, seen: Dict[str, Any], now: float,
                t: int) -> Tuple[BufferedNetwork, Optional[str]]:
        """One buffered, deadline-bounded decide and its verdict: the
        fault is ``None`` unless the decider was not ``ok``, the guard
        logged a ``controller-error``, or a buffered write is out of
        bounds."""
        buf = BufferedNetwork(self.net)
        outcome = self._decider(rec.name).submit(
            rec.controller.decide, seen, now, buf,
            budget_s=self.config.decide_budget_s)
        guard_error = self._note_guard_faults(rec, t)
        if not outcome.ok:
            fault = outcome.status + (f": {type(outcome.error).__name__}"
                                      if outcome.error is not None else "")
        elif guard_error is not None:
            fault = f"controller-error: {guard_error}"
        elif not all(config_in_bounds(cfg) for _, cfg in buf.buffered):
            fault = "out-of-bounds proposal"
        else:
            fault = None
        return buf, fault

    def _strike(self, rec: Any, fault: Optional[str], t: int) -> None:
        """One strike rule for every decide: clean clears the strikes;
        at ``max_strikes`` a shadow is suspended, a canary rolled back,
        an incumbent demoted (static stays).  Exhausted suspends at once.
        """
        if fault is None:
            rec.strikes = 0
            return
        rec.faults += 1
        rec.strikes += 1
        rec.last_error = fault
        self.last_fault_tick = t
        if rec.stage == "shadow":
            rec.clean_streak = 0
            self._inc("serve.shadow_faults", policy=rec.name)
            self._event("serve.shadow_fault", tick=t, policy=rec.name,
                        status=fault, strikes=rec.strikes)
        else:
            self.breaches_total += 1
            self._inc("serve.decide_breaches", status=fault.split(":")[0],
                      policy=rec.name)
            self._event("serve.decide_breach", tick=t, policy=rec.name,
                        status=fault, strikes=rec.strikes)
        if rec.name == PolicyRegistry.STATIC:
            return
        gcfg = self.gate.config
        if fault == "exhausted" or (rec.stage == "shadow"
                                    and rec.strikes >= gcfg.max_strikes):
            self.registry.suspend(rec.name, reason=fault)
            self._event("serve.suspend", policy=rec.name, reason=fault)
        elif rec.strikes < gcfg.max_strikes:
            return
        elif rec.stage == "canary":
            self.registry.rollback_canary(
                tick=t, cooldown_ticks=gcfg.cooldown_ticks,
                reason=f"{rec.strikes} decide breaches")
            self.rollbacks_total += 1
            self._inc("serve.rollbacks", cause="breaches")
            self._event("serve.rollback", policy=rec.name, cause="breaches")
        else:
            self._inc("serve.demotions", cause="breaches")
            self.demote(reason=f"{rec.strikes} decide breaches")

    def _score_shadows(self, acting: Any, t: int, now: float,
                       seen: Dict[str, Any]) -> None:
        """Score every shadow but ``acting`` (which decided this tick even
        if its strikes sent it back) against a buffer never flushed."""
        for rec in self.registry.shadows():
            if rec is acting:
                continue
            buf, fault = self._decide(rec, seen, now, t)
            rec.shadow_ticks += 1
            if fault is None:
                rec.record_proposals(t, buf.buffered)
                rec.clean_streak += 1
            self._strike(rec, fault, t)
            # NB: buf is dropped — shadow writes never reach the fabric.

    def _push_metrics(self, stats: Dict[str, Any], acting_src: str) -> None:
        """True fabric metrics (not the chaos-filtered copy) → windows."""
        qlens = [st.qlen_bytes for st in stats.values()]
        utils = []
        for st in stats.values():
            denom = st.capacity_bps / 8.0 * max(st.interval, 1e-12)
            if denom > 0.0:
                utils.append(min(st.tx_bytes / denom, 1.0))
        finished = self.net.finished_flows
        new = finished[self._fct_cursor:]
        self._fct_cursor = len(finished)
        fcts = [f.finish_time - f.start_time for f in new
                if f.finish_time is not None]
        window = (self._canary_window if acting_src == "canary"
                  else self._baseline)
        window.push(
            queue_mean_bytes=sum(qlens) / len(qlens) if qlens else 0.0,
            util_mean=sum(utils) / len(utils) if utils else 0.0,
            fcts_s=fcts)

    def _gate_verdict(self, t: int) -> None:
        """Gate the canary: rollback on regression, promote on survival."""
        rec = self.registry.canary
        if rec is None:
            return
        gcfg = self.gate.config
        decision = self.gate.evaluate(self._frozen_baseline,
                                      self._canary_window.summary())
        self.last_gate_decision = decision.as_dict()
        if decision.breach:
            self.registry.rollback_canary(
                tick=t, cooldown_ticks=gcfg.cooldown_ticks,
                reason="; ".join(decision.reasons))
            self.rollbacks_total += 1
            self.last_fault_tick = t
            self._inc("serve.rollbacks", cause="gate")
            self._event("serve.rollback", policy=rec.name, cause="gate",
                        reasons="; ".join(decision.reasons))
            return
        if rec.canary_ticks >= gcfg.canary_ticks:
            self.registry.complete_promotion(tick=t)
            self.promotions_total += 1
            # The promoted policy's canary window is the new baseline.
            self._baseline = self._canary_window
            self._canary_window = MetricWindow(gcfg.window_ticks)
            self._frozen_baseline = self._baseline.summary()
            self._inc("serve.promotions")
            self._event("serve.promote", policy=rec.name,
                        canary_ticks=rec.canary_ticks)

    def _hot_reload(self, rec: Any) -> None:
        """One reload attempt: newer complete checkpoint or keep serving.

        A torn/corrupt checkpoint mid-rotation surfaces as
        :class:`CheckpointCorruptError`; the read retries with backoff
        and, if the directory never yields a complete newer snapshot,
        the policy keeps its current weights — old weights beat no
        weights.
        """
        try:
            result = retry_call(
                lambda: rec.checkpoints.load_newer_than(rec.loaded_step),
                policy=_RELOAD_RETRY,
                retry_on=(CheckpointCorruptError, OSError),
                sleep=self.sleep)
        except RetryExhausted as exc:
            return self._reload_failed(rec,
                                       f"reload: {type(exc.last).__name__}")
        if result is None:
            return                         # nothing newer; keep serving
        state, step = result
        try:
            rec.controller.load_state_dict(state)
        except Exception as exc:   # noqa: BLE001 — keep old weights
            return self._reload_failed(
                rec, f"reload apply: {type(exc).__name__}")
        rec.loaded_step = step
        rec.reloads += 1
        self._inc("serve.reloads", policy=rec.name)
        self._event("serve.reload", policy=rec.name, step=step)

    def _reload_failed(self, rec: Any, error: str) -> None:
        rec.reload_failures += 1
        rec.last_error = error
        self._inc("serve.reload_failures", policy=rec.name)
        self._event("serve.reload_failed", policy=rec.name, error=error)

    def _reload_all(self) -> None:
        for rec in self.registry.records.values():
            if rec.checkpoints is not None and rec.stage != "suspended":
                self._hot_reload(rec)

    # -- health ---------------------------------------------------------------
    def _note_guard_faults(self, rec: Any, t: int) -> Optional[str]:
        """New guard FaultLog entries mark the tick faulty for health;
        returns the error name of a ``controller-error`` among them."""
        start = self._fault_log_len.get(rec.name, 0)
        new = rec.controller.log.events[start:]
        self._fault_log_len[rec.name] = start + len(new)
        if new:
            self.last_fault_tick = t
        for ev in new:
            if ev.kind == "controller-error":
                return str(ev.detail.get("error", "?"))
        return None

    def _refresh_health(self) -> None:
        if self.health == "failed":
            return
        if self.tick_count == 0:
            self.health = "starting"
            return
        recently_faulty = (self.tick_count - 1 - self.last_fault_tick
                           <= self.config.degraded_hold_ticks)
        quarantined = bool(
            getattr(self.registry.incumbent.controller, "quarantined",
                    lambda: [])())
        self.health = "degraded" if (recently_faulty or quarantined) \
            else "ready"

    # -- obs ------------------------------------------------------------------
    def _inc(self, name: str, **labels: Any) -> None:
        reg = get_registry()
        if reg:
            reg.inc(name, **labels)

    def _event(self, name: str, **attrs: Any) -> None:
        tracer = get_tracer()
        if tracer:
            tracer.event(name, **attrs)

    def _export(self, t: int) -> None:
        reg = get_registry()
        if not reg:
            return
        reg.set_gauge("serve.tick", t)
        reg.set_gauge("serve.health", float(HEALTH_STATES.index(self.health)))
        reg.set_gauge("serve.policies", len(self.registry.records))
        reg.set_gauge("serve.shadows", len(self.registry.shadows()))
        reg.set_gauge("serve.canary_active",
                      0.0 if self.registry.canary_name is None else 1.0)

    # -- snapshots (HTTP) -----------------------------------------------------
    def health_snapshot(self) -> Dict[str, Any]:
        with self._lock:
            incumbent = self.registry.incumbent
            quarantined = getattr(incumbent.controller, "quarantined",
                                  lambda: [])()
            return {
                "status": self.health,
                "failure_reason": self.failure_reason,
                "tick": self.tick_count,
                "sim_time": float(self.net.now),
                "incumbent": self.registry.incumbent_name,
                "canary": self.registry.canary_name,
                "last_fault_tick": (None if self.last_fault_tick < 0
                                    else self.last_fault_tick),
                "breaches_total": self.breaches_total,
                "rollbacks_total": self.rollbacks_total,
                "promotions_total": self.promotions_total,
                "telemetry_failures": self.telemetry_failures,
                "quarantined": list(quarantined),
                "decider_replacements": {
                    name: d.replacements
                    for name, d in sorted(self._deciders.items())
                    if d.replacements},
            }

    def state_snapshot(self) -> Dict[str, Any]:
        with self._lock:
            queues = {
                name: {"qlen_bytes": float(st.qlen_bytes),
                       "avg_qlen_bytes": float(st.avg_qlen_bytes),
                       "dropped_pkts": int(st.dropped_pkts),
                       "ecn": None if st.ecn is None else {
                           "kmin_bytes": st.ecn.kmin_bytes,
                           "kmax_bytes": st.ecn.kmax_bytes,
                           "pmax": st.ecn.pmax}}
                for name, st in (self.last_stats or {}).items()}
            stacking = {}
            for name, inner in self._inner.items():
                trainer = getattr(inner, "trainer", None)
                if trainer is not None and hasattr(trainer, "stacking_status"):
                    stacking[name] = trainer.stacking_status()
            return {
                "tick": self.tick_count,
                "sim_time": float(self.net.now),
                "health": self.health,
                "queues": queues,
                "applied_by": dict(self.applied_by),
                "registry": self.registry.snapshot(),
                "baseline": self._baseline.summary().as_dict(),
                "frozen_baseline": self._frozen_baseline.as_dict(),
                "canary_window": self._canary_window.summary().as_dict(),
                "last_gate_decision": self.last_gate_decision,
                "stacking": stacking,
                "gate": {
                    "min_shadow_ticks": self.gate.config.min_shadow_ticks,
                    "canary_ticks": self.gate.config.canary_ticks,
                    "queue_tolerance": self.gate.config.queue_tolerance,
                    "fct_tolerance": self.gate.config.fct_tolerance,
                    "util_tolerance": self.gate.config.util_tolerance,
                },
            }

    def close(self) -> None:
        with self._lock:
            for d in self._deciders.values():
                d.close()
            if self.chaos is not None:
                self.chaos.disarm()
