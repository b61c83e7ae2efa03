"""Graceful-degradation wrapper around any controller.

:class:`ResilientController` implements the shared
:class:`repro.core.controller.Controller` protocol around an inner
controller (PET, ACC, a static scheme) and keeps the control loop alive
under the faults :mod:`repro.resilience.faults` injects — or any real
bug that surfaces the same way:

- **telemetry sanitation** — NaN/inf/negative statistics are clamped
  (and logged) before they ever reach the state builder; a switch whose
  stats are unusable (non-positive interval) is skipped for the
  interval;
- **crash isolation** — an exception from ``decide`` that names a
  switch (an ``exc.switch`` attribute, e.g.
  :class:`~repro.resilience.faults.AgentCrashError`) quarantines that
  one agent and retries the interval without it, so one crashing agent
  never aborts the loop; unattributed exceptions skip the interval's
  decision and are logged;
- **safe fallback** — a quarantined switch is immediately put on the
  static safe ECN configuration (SECN1 defaults) and keeps running it;
- **probation with exponential backoff** — after
  ``probation_intervals`` the agent is reinstated; a relapse doubles
  the next quarantine (capped), a sustained healthy streak clears the
  strike count;
- **bounds enforcement** — any applied config outside the guard's
  bounds (``0 <= Kmin <= Kmax <= kmax_ceiling_bytes``, ``Pmax`` a
  probability) is overwritten with the safe config.

Everything the guard does is recorded in a structured
:class:`~repro.resilience.log.FaultLog`, consumed by
:mod:`repro.analysis.resilience`; quarantine/probation state is
additionally exported as :mod:`repro.obs` gauges (``guard.quarantined``,
``guard.strikes{switch}``, ``guard.state{switch}``) so out-of-band
consumers (``/health``, ``repro trace``) never call
:meth:`~ResilientController.health_report` in-band.  Invariant violations raised by the
devtools sanitizer are *not* swallowed: they indicate a harness bug,
not a runtime fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.devtools.sanitize import (ECN_KMAX_CEILING_BYTES,
                                     InvariantViolation)
from repro.netsim.ecn import SECN1, ECNConfig
from repro.obs.metrics import get_registry
from repro.resilience.log import FaultLog

__all__ = ["GuardConfig", "SwitchHealth", "ResilientController",
           "config_in_bounds"]


def config_in_bounds(config: ECNConfig, *,
                     kmax_ceiling_bytes: int = ECN_KMAX_CEILING_BYTES) -> bool:
    """True when ``config`` is a sane, applicable ECN configuration.

    The shared acceptance predicate: ``0 <= Kmin <= Kmax <= ceiling``
    with finite values and ``Pmax`` a probability.  Used by the guard's
    bounds enforcement and by the serve plane's manual-action and
    shadow-proposal validation.
    """
    try:
        kmin, kmax, pmax = (float(config.kmin_bytes),
                            float(config.kmax_bytes), float(config.pmax))
    except (TypeError, ValueError, AttributeError):
        return False
    return (math.isfinite(kmin) and math.isfinite(kmax)
            and math.isfinite(pmax)
            and 0.0 <= kmin <= kmax <= kmax_ceiling_bytes
            and 0.0 <= pmax <= 1.0)


@dataclass
class GuardConfig:
    """Degradation policy knobs."""

    #: static fallback applied to a quarantined switch (SECN defaults).
    safe_ecn: ECNConfig = field(default_factory=lambda: SECN1)
    #: base quarantine length, in tuning intervals.
    probation_intervals: int = 5
    #: quarantine multiplier per repeated strike (exponential backoff).
    backoff_factor: float = 2.0
    #: quarantine length cap, in tuning intervals.
    max_probation_intervals: int = 80
    #: healthy intervals after which past strikes are forgiven.
    recovery_intervals: int = 25
    #: upper bound on an applied Kmax (matches the devtools sanitizer's
    #: ``ecn-bounds`` invariant).
    kmax_ceiling_bytes: int = ECN_KMAX_CEILING_BYTES

    def __post_init__(self) -> None:
        if self.probation_intervals < 1:
            raise ValueError("probation must be at least one interval")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.max_probation_intervals < self.probation_intervals:
            raise ValueError("max probation must be >= base probation")


@dataclass
class SwitchHealth:
    """Per-switch guard state."""

    state: str = "healthy"          # "healthy" | "quarantined"
    strikes: int = 0                # consecutive-crash escalation counter
    crashes: int = 0                # lifetime crash count
    healthy_streak: int = 0         # intervals since last fault
    release_interval: int = -1      # interval index when probation ends


#: float stats fields sanitized for finiteness and non-negativity.
_FLOAT_FIELDS = ("qlen_bytes", "max_port_qlen_bytes", "avg_qlen_bytes",
                 "capacity_bps")
#: integer counter fields sanitized for non-negativity.
_INT_FIELDS = ("tx_bytes", "tx_marked_bytes", "dropped_pkts")


class ResilientController:
    """Fault-isolating :class:`Controller` wrapper (see module docstring)."""

    def __init__(self, inner, switch_names: List[str],
                 config: Optional[GuardConfig] = None, *,
                 log: Optional[FaultLog] = None) -> None:
        if not switch_names:
            raise ValueError("need at least one switch")
        self.inner = inner
        self.switches = list(switch_names)
        self.config = config or GuardConfig()
        self.log = log if log is not None else FaultLog()
        self.health: Dict[str, SwitchHealth] = {
            s: SwitchHealth() for s in self.switches}
        self._interval = -1

    # -- Controller interface ------------------------------------------------
    def set_training(self, training: bool) -> None:
        self.inner.set_training(training)

    def decide(self, stats: Dict, now: float, network) -> Dict[str, ECNConfig]:
        self._interval += 1
        clean = self._sanitize_stats(stats, now)
        self._release_due(now)
        active = {s: st for s, st in clean.items()
                  if self.health[s].state == "healthy"}

        applied: Dict[str, ECNConfig] = {}
        attempts = 0
        while True:
            try:
                applied = dict(self.inner.decide(active, now, network) or {})
                break
            except InvariantViolation:
                raise          # harness bug, not a runtime fault
            except Exception as exc:   # noqa: BLE001 — isolation is the point
                switch = getattr(exc, "switch", None)
                attempts += 1
                if (switch in active and attempts <= len(self.switches)):
                    self._quarantine(switch, now, network, exc)
                    active.pop(switch)
                    continue
                self.log.record(now, "controller-error", None,
                                {"error": type(exc).__name__})
                applied = {}
                break

        self._enforce_bounds(applied, now, network)
        # health bookkeeping: clean intervals forgive old strikes
        for s in active:
            h = self.health[s]
            h.healthy_streak += 1
            if h.strikes and h.healthy_streak >= self.config.recovery_intervals:
                h.strikes = 0
                self.log.record(now, "strikes-cleared", s)
        # quarantined switches run the safe fallback this interval
        for s, h in self.health.items():
            if h.state == "quarantined":
                applied[s] = self.config.safe_ecn
        self._export_gauges()
        return applied

    def _export_gauges(self) -> None:
        """Mirror quarantine/probation state onto the telemetry bus.

        ``/health`` endpoints and ``repro trace`` read these gauges
        (``guard.quarantined``, ``guard.strikes{switch}``,
        ``guard.state{switch}``) instead of calling
        :meth:`health_report` in-band.
        """
        reg = get_registry()
        if not reg:
            return
        quarantined = 0
        for s, h in self.health.items():
            in_q = h.state == "quarantined"
            quarantined += int(in_q)
            reg.set_gauge("guard.strikes", h.strikes, switch=s)
            reg.set_gauge("guard.state", 1.0 if in_q else 0.0, switch=s)
        reg.set_gauge("guard.quarantined", quarantined)

    # -- telemetry sanitation ------------------------------------------------
    def _sanitize_stats(self, stats: Dict, now: float) -> Dict:
        clean: Dict = {}
        for s, st in stats.items():
            if s in self.health and st is not None:
                interval = getattr(st, "interval", 1.0)
                if not math.isfinite(interval) or interval <= 0.0:
                    self.log.record(now, "telemetry-unusable", s,
                                    {"interval": interval})
                    continue
                repl: Dict[str, float] = {}
                bad: List[str] = []
                for name in _FLOAT_FIELDS:
                    v = float(getattr(st, name))
                    if not math.isfinite(v) or v < 0.0:
                        bad.append(name)
                        repl[name] = 0.0
                for name in _INT_FIELDS:
                    v = getattr(st, name)
                    if not math.isfinite(float(v)) or v < 0:
                        bad.append(name)
                        repl[name] = 0
                if bad:
                    self.log.record(now, "telemetry-corrupt", s,
                                    {"fields": tuple(sorted(bad))})
                    st = replace(st, **repl)
                clean[s] = st
        for s in self.switches:
            if s not in stats:
                self.log.record(now, "telemetry-missing", s)
        return clean

    # -- quarantine lifecycle ------------------------------------------------
    def _quarantine(self, switch: str, now: float, network,
                    exc: Exception) -> None:
        cfg = self.config
        h = self.health[switch]
        h.crashes += 1
        h.strikes += 1
        h.healthy_streak = 0
        span = min(int(cfg.probation_intervals
                       * cfg.backoff_factor ** (h.strikes - 1)),
                   cfg.max_probation_intervals)
        h.state = "quarantined"
        h.release_interval = self._interval + span
        self.log.record(now, "agent-crash", switch,
                        {"error": type(exc).__name__})
        self.log.record(now, "quarantine", switch,
                        {"intervals": span, "strikes": h.strikes})
        try:
            network.set_ecn(switch, cfg.safe_ecn)
        except Exception:   # noqa: BLE001 — fallback must never kill the loop
            self.log.record(now, "fallback-failed", switch)

    def _release_due(self, now: float) -> None:
        for s, h in self.health.items():
            if h.state == "quarantined" and self._interval >= h.release_interval:
                h.state = "healthy"
                h.healthy_streak = 0
                self.log.record(now, "reinstate", s, {"strikes": h.strikes})

    # -- bounds enforcement --------------------------------------------------
    def _config_in_bounds(self, config: ECNConfig) -> bool:
        return config_in_bounds(
            config, kmax_ceiling_bytes=self.config.kmax_ceiling_bytes)

    def _enforce_bounds(self, applied: Dict[str, ECNConfig], now: float,
                        network) -> None:
        for s, cfgd in list(applied.items()):
            if cfgd is None or self._config_in_bounds(cfgd):
                continue
            self.log.record(now, "action-out-of-bounds", s,
                            {"kmin": getattr(cfgd, "kmin_bytes", None),
                             "kmax": getattr(cfgd, "kmax_bytes", None),
                             "pmax": getattr(cfgd, "pmax", None)})
            applied[s] = self.config.safe_ecn
            try:
                network.set_ecn(s, self.config.safe_ecn)
            except Exception:   # noqa: BLE001
                self.log.record(now, "fallback-failed", s)

    # -- diagnostics ---------------------------------------------------------
    def health_report(self) -> Dict[str, Dict]:
        return {s: {"state": h.state, "strikes": h.strikes,
                    "crashes": h.crashes, "healthy_streak": h.healthy_streak}
                for s, h in self.health.items()}

    def quarantined(self) -> List[str]:
        return [s for s, h in self.health.items() if h.state == "quarantined"]

    def __getattr__(self, name):
        return getattr(self.inner, name)
