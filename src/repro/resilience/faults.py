"""Composable, seeded chaos fault injection for both simulators.

This generalizes :class:`repro.netsim.failures.LinkFailureInjector`
(which only covers the paper's Fig. 7 link-failure episode) into a
declarative :class:`FaultPlan` executed by a :class:`ChaosInjector`:

===================  ========================================================
fault kind           effect
===================  ========================================================
``link-down``        take a fraction of fabric links down (ECMP reroutes)
``link-restore``     bring previously failed links back up
link flap            expands into alternating down/restore events
``degrade``          scale fabric link capacity by a factor for a window
``blackout``         per-switch telemetry loss: ``queue_stats`` entries go
                     missing (or stale) for a window
``corrupt``          per-switch observation corruption: a stats field is
                     replaced by NaN/inf/negative for a window
``crash``            agent-crash injection: the controller's ``decide``
                     raises :class:`AgentCrashError` for a window
``ecn-unreliable``   applied ECN configs are dropped or delayed by one
                     tuning interval with seeded probability
===================  ========================================================

Network-level events (link up/down, degradation) are *schedulable on the
event engine*: against :class:`~repro.netsim.network.PacketNetwork` the
injector registers them as exact-time simulator events; against the
time-stepped :class:`~repro.netsim.fluid.FluidNetwork` they fire at the
first control-interval boundary past their timestamp.  Control-plane
faults (blackout, corruption, crash, ECN unreliability) are inherently
interval-granular and are applied by the control loop via
:meth:`ChaosInjector.filter_stats` / :meth:`ChaosInjector.wrap`.

Everything is deterministic under a fixed seed: the plan is a static
timeline, and every random draw (link choice, ECN drop coin) comes from
one seeded :class:`numpy.random.Generator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.seeding import fallback_rng

from repro.netsim.failures import LinkFailureInjector
from repro.resilience.log import FaultLog

__all__ = ["AgentCrashError", "FaultSpec", "FaultPlan", "ChaosInjector",
           "FaultInjectingController"]


class AgentCrashError(RuntimeError):
    """Injected (or attributed) per-switch agent failure.

    Carries the crashing switch so the guard can quarantine exactly that
    agent instead of aborting the whole control loop.
    """

    def __init__(self, switch: str, message: Optional[str] = None) -> None:
        super().__init__(message or f"agent for switch {switch!r} crashed")
        self.switch = switch


# Window-based fault kinds (active over [at, until)); the rest are
# one-shot events executed exactly once.
_WINDOW_KINDS = ("blackout", "corrupt", "crash", "ecn-unreliable", "degrade")
_ONESHOT_KINDS = ("link-down", "link-restore")


@dataclass(frozen=True)
class FaultSpec:
    """One entry of a :class:`FaultPlan` timeline."""

    kind: str
    at: float                        # activation time (virtual seconds)
    until: float = 0.0               # window end; unused for one-shot kinds
    switch: Optional[str] = None     # target switch for per-switch kinds
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _WINDOW_KINDS + _ONESHOT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError("fault time must be non-negative")
        if self.kind in _WINDOW_KINDS and self.until <= self.at:
            raise ValueError(f"{self.kind} window must end after it starts")

    def active(self, now: float) -> bool:
        return self.kind in _WINDOW_KINDS and self.at <= now < self.until


class FaultPlan:
    """Declarative fault timeline, built by chaining add-methods."""

    def __init__(self, specs: Optional[List[FaultSpec]] = None) -> None:
        self.specs: List[FaultSpec] = list(specs or [])

    def _add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    # -- builders ------------------------------------------------------------
    def link_down(self, at: float, fraction: float = 0.10) -> "FaultPlan":
        return self._add(FaultSpec("link-down", at,
                                   params={"fraction": float(fraction)}))

    def link_restore(self, at: float) -> "FaultPlan":
        return self._add(FaultSpec("link-restore", at))

    def link_flap(self, at: float, until: float, period: float,
                  fraction: float = 0.10) -> "FaultPlan":
        """Intermittent up/down: down for half a period, up for the other."""
        if period <= 0 or until <= at:
            raise ValueError("flap needs a positive period and window")
        t = at
        while t < until:
            self.link_down(t, fraction)
            self.link_restore(min(t + period / 2.0, until))
            t += period
        return self

    def degrade(self, at: float, until: float, factor: float = 0.5) -> "FaultPlan":
        """Scale fabric link capacity by ``factor`` over the window."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("degradation factor must be in (0, 1]")
        return self._add(FaultSpec("degrade", at, until,
                                   params={"factor": float(factor)}))

    def blackout(self, switch: str, at: float, until: float,
                 mode: str = "missing") -> "FaultPlan":
        """Telemetry blackout: the switch's stats go missing or stale."""
        if mode not in ("missing", "stale"):
            raise ValueError("blackout mode must be 'missing' or 'stale'")
        return self._add(FaultSpec("blackout", at, until, switch,
                                   params={"mode": mode}))

    def corrupt(self, switch: str, at: float, until: float,
                stats_field: str = "avg_qlen_bytes",
                value: float = float("nan")) -> "FaultPlan":
        """Replace one stats field with a poisoned value (NaN/inf/negative)."""
        return self._add(FaultSpec("corrupt", at, until, switch,
                                   params={"field": stats_field,
                                           "value": float(value)}))

    def agent_crash(self, switch: str, at: float, until: float) -> "FaultPlan":
        """The controller raises :class:`AgentCrashError` for this switch
        whenever it decides on its stats inside the window."""
        return self._add(FaultSpec("crash", at, until, switch))

    def ecn_unreliable(self, at: float, until: float, *,
                       drop_p: float = 0.5, delay_p: float = 0.0,
                       delay: float = 1e-3) -> "FaultPlan":
        """Applied ECN configs are dropped (never reach the switch) or
        delayed by ``delay`` seconds with the given probabilities."""
        if not 0.0 <= drop_p + delay_p <= 1.0:
            raise ValueError("drop_p + delay_p must be a probability")
        return self._add(FaultSpec("ecn-unreliable", at, until,
                                   params={"drop_p": float(drop_p),
                                           "delay_p": float(delay_p),
                                           "delay": float(delay)}))

    # -- canned scenarios ----------------------------------------------------
    @classmethod
    def fig7(cls, duration: float, fraction: float = 0.10) -> "FaultPlan":
        """The paper's §5.5.5 episode scaled to ``duration``: fail 10% of
        fabric links at 31% of the run, restore at 61%."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        return cls().link_down(0.31 * duration, fraction) \
                    .link_restore(0.61 * duration)

    @classmethod
    def extended(cls, duration: float, switches: List[str]) -> "FaultPlan":
        """The full fault matrix: Fig. 7 plus capacity degradation,
        telemetry blackout, observation corruption, an agent crash, and a
        window of unreliable ECN application.  Target switches are picked
        deterministically from the (sorted) switch list."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not switches:
            raise ValueError("need at least one switch")
        sw = sorted(switches)
        d = duration
        plan = cls.fig7(d)
        plan.degrade(0.05 * d, 0.20 * d, factor=0.5)
        plan.blackout(sw[0], 0.15 * d, 0.30 * d, mode="missing")
        plan.corrupt(sw[1 % len(sw)], 0.35 * d, 0.50 * d,
                     stats_field="avg_qlen_bytes", value=float("nan"))
        plan.agent_crash(sw[2 % len(sw)], 0.55 * d, 0.70 * d)
        plan.ecn_unreliable(0.75 * d, 0.90 * d, drop_p=0.5)
        return plan

    def sorted_specs(self) -> List[FaultSpec]:
        return sorted(self.specs, key=lambda s: (s.at, s.kind, s.switch or ""))

    def __len__(self) -> int:
        return len(self.specs)


# --------------------------------------------------------------------------
# link adapters: one fault vocabulary over both simulators
# --------------------------------------------------------------------------
class _FluidLinks:
    """Fabric-link control for :class:`FluidNetwork`."""

    def __init__(self, network, rng: np.random.Generator) -> None:
        self.network = network
        self.rng = rng

    def down(self, fraction: float) -> int:
        return self.network.fail_uplinks(fraction, rng=self.rng)

    def restore(self) -> None:
        self.network.restore_uplinks()

    def degrade(self, factor: float) -> None:
        self.network.set_fabric_capacity_factor(factor)

    def undegrade(self) -> None:
        self.network.set_fabric_capacity_factor(1.0)


class _PacketLinks:
    """Fabric-link control for :class:`PacketNetwork`."""

    def __init__(self, network, rng: np.random.Generator) -> None:
        self.network = network
        self.injector = LinkFailureInjector(network, rng=rng)
        self._orig_rates: Dict[Tuple[str, int], float] = {}

    def down(self, fraction: float) -> int:
        return len(self.injector.fail_fraction(fraction))

    def restore(self) -> None:
        self.injector.restore_all()

    def degrade(self, factor: float) -> None:
        for sw_name, idx in self.network.topology.fabric_ports:
            port = self.network.topology.node(sw_name).ports[idx]
            key = (sw_name, idx)
            if key not in self._orig_rates:
                self._orig_rates[key] = port.rate_bps
            port.rate_bps = self._orig_rates[key] * factor

    def undegrade(self) -> None:
        for (sw_name, idx), rate in self._orig_rates.items():
            self.network.topology.node(sw_name).ports[idx].rate_bps = rate
        self._orig_rates.clear()


# --------------------------------------------------------------------------
# the injector
# --------------------------------------------------------------------------
class ChaosInjector:
    """Executes a :class:`FaultPlan` against a live simulation.

    The control loop drives it via three hooks:

    - :meth:`tick` — once per tuning interval (before ``advance``):
      fires due one-shot events and logs window begin/end transitions;
    - :meth:`filter_stats` — between ``queue_stats()`` and
      ``controller.decide``: applies blackout and corruption faults to
      the telemetry the controller sees (the network's ground truth is
      untouched);
    - :meth:`wrap` — wraps a controller so agent-crash faults raise
      inside ``decide`` (an *unguarded* loop dies; a guarded one
      quarantines the switch).

    ``arm()`` additionally intercepts ``network.set_ecn`` for the
    ECN-unreliability windows and — on the packet simulator — registers
    link events on the event engine at their exact virtual times.
    """

    def __init__(self, network, plan: FaultPlan, *,
                 rng: Optional[np.random.Generator] = None,
                 log: Optional[FaultLog] = None) -> None:
        self.network = network
        self.plan = plan
        self.rng = rng if rng is not None else fallback_rng(0)
        self.log = log if log is not None else FaultLog()
        self._links = (_FluidLinks(network, self.rng)
                       if hasattr(network, "fail_uplinks")
                       else _PacketLinks(network, self.rng))
        self._pending = [s for s in plan.sorted_specs()
                         if s.kind in _ONESHOT_KINDS]
        self._windows = [s for s in plan.sorted_specs()
                         if s.kind in _WINDOW_KINDS]
        self._window_state: Dict[int, bool] = {i: False
                                               for i in range(len(self._windows))}
        self._engine_scheduled = False
        self._armed = False
        self._orig_set_ecn = None
        self._delayed_configs: List[Tuple[float, str, Any]] = []
        self._stale_stats: Dict[str, Any] = {}

    # -- arming --------------------------------------------------------------
    def arm(self) -> "ChaosInjector":
        """Install the ECN-application interceptor and (packet simulator
        only) schedule link events on the event engine."""
        if self._armed:
            return self
        sim = getattr(self.network, "sim", None)
        if sim is not None and self._pending:
            for spec in self._pending:
                sim.schedule_at(max(spec.at, sim.now), self._fire, spec)
            self._pending = []
            self._engine_scheduled = True
        self._orig_set_ecn = self.network.set_ecn
        self.network.set_ecn = self._chaotic_set_ecn   # instance shadow
        self._armed = True
        return self

    def disarm(self) -> None:
        """Restore the intercepted ``set_ecn`` (engine events stay)."""
        if not self._armed:
            return
        if self._orig_set_ecn is not None:
            # remove the instance attribute so the class method resolves again
            del self.network.set_ecn
            self._orig_set_ecn = None
        self._armed = False

    # -- per-interval hook ---------------------------------------------------
    def tick(self, now: float) -> None:
        """Fire due one-shot events and window transitions; apply delayed
        ECN configs whose delay has elapsed."""
        while self._pending and self._pending[0].at <= now:
            self._fire(self._pending.pop(0))
        for i, spec in enumerate(self._windows):
            was_active = self._window_state[i]
            is_active = spec.active(now)
            if is_active and not was_active:
                self._begin_window(spec, now)
            elif was_active and not is_active:
                self._end_window(spec, now)
            self._window_state[i] = is_active
        if self._delayed_configs:
            due = [d for d in self._delayed_configs if d[0] <= now]
            self._delayed_configs = [d for d in self._delayed_configs
                                     if d[0] > now]
            for _, switch, config in due:
                self._apply_ecn(switch, config)

    def _fire(self, spec: FaultSpec) -> None:
        now = self.network.now
        if spec.kind == "link-down":
            n = self._links.down(spec.params["fraction"])
            self.log.record(now, "link-down", None,
                            {"fraction": spec.params["fraction"], "links": n})
        elif spec.kind == "link-restore":
            self._links.restore()
            self.log.record(now, "link-restore")

    def _begin_window(self, spec: FaultSpec, now: float) -> None:
        if spec.kind == "degrade":
            self._links.degrade(spec.params["factor"])
        self.log.record(now, spec.kind + "-begin", spec.switch,
                        dict(spec.params))

    def _end_window(self, spec: FaultSpec, now: float) -> None:
        if spec.kind == "degrade":
            self._links.undegrade()
        self.log.record(now, spec.kind + "-end", spec.switch)

    # -- telemetry faults ----------------------------------------------------
    def filter_stats(self, stats: Dict[str, Any], now: float) -> Dict[str, Any]:
        """Apply blackout/corruption to the controller-visible telemetry."""
        out = dict(stats)
        for spec in self._windows:
            if not spec.active(now) or spec.switch is None:
                continue
            if spec.kind == "blackout" and spec.switch in out:
                if spec.params["mode"] == "stale":
                    stale = self._stale_stats.get(spec.switch)
                    if stale is not None:
                        out[spec.switch] = stale
                    else:
                        out.pop(spec.switch)
                else:
                    out.pop(spec.switch)
            elif spec.kind == "corrupt" and spec.switch in out:
                out[spec.switch] = out[spec.switch].replace(
                    **{spec.params["field"]: spec.params["value"]})
        # remember the last telemetry seen outside a blackout (stale mode)
        for name, st in stats.items():
            if name in out and out[name] is st:
                self._stale_stats[name] = st
        return out

    # -- agent-crash faults --------------------------------------------------
    def crash_due(self, stats: Dict[str, Any], now: float) -> Optional[str]:
        """First switch (sorted) with an active crash window in ``stats``."""
        for spec in self._windows:
            if spec.kind == "crash" and spec.active(now) \
                    and spec.switch in stats:
                return spec.switch
        return None

    def wrap(self, controller) -> "FaultInjectingController":
        return FaultInjectingController(controller, self)

    # -- ECN application faults ----------------------------------------------
    def _ecn_window(self, now: float) -> Optional[FaultSpec]:
        for spec in self._windows:
            if spec.kind == "ecn-unreliable" and spec.active(now):
                return spec
        return None

    def _apply_ecn(self, switch: str, config) -> None:
        orig = self._orig_set_ecn
        if orig is not None:
            orig(switch, config)
        else:                       # disarmed while a delayed config was due
            self.network.set_ecn(switch, config)

    def _chaotic_set_ecn(self, switch: str, config) -> None:
        now = self.network.now
        spec = self._ecn_window(now)
        if spec is not None:
            u = float(self.rng.random())
            if u < spec.params["drop_p"]:
                self.log.record(now, "ecn-dropped", switch)
                return
            if u < spec.params["drop_p"] + spec.params["delay_p"]:
                self.log.record(now, "ecn-delayed", switch,
                                {"delay": spec.params["delay"]})
                self._delayed_configs.append(
                    (now + spec.params["delay"], switch, config))
                return
        self._apply_ecn(switch, config)


class FaultInjectingController:
    """Controller proxy that raises scheduled :class:`AgentCrashError`.

    It raises *before* delegating, so the inner controller's state is
    untouched by an injected crash — a guard can safely retry the
    interval with the crashed switch excluded.
    """

    def __init__(self, inner, chaos: ChaosInjector) -> None:
        self.inner = inner
        self.chaos = chaos

    def decide(self, stats, now, network):
        switch = self.chaos.crash_due(stats, now)
        if switch is not None:
            raise AgentCrashError(switch)
        return self.inner.decide(stats, now, network)

    def set_training(self, training: bool) -> None:
        self.inner.set_training(training)

    def __getattr__(self, name):
        return getattr(self.inner, name)
