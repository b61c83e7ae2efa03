"""Policy lifecycle: shadow → canary → promoted, with rollback.

The rollout discipline that makes online policy updates safe (ROADMAP
item 1, RL-CC's deployment gap):

- a freshly registered policy starts in **shadow**: it scores every
  tick against a :class:`BufferedNetwork` view, so its actions are
  recorded but *cannot* reach the fabric — the proxy absorbs every
  ``set_ecn`` (sound because controllers mutate the network only
  through the :class:`repro.core.controller.Actuator` surface);
- a shadow that has run ``min_shadow_ticks`` clean ticks (no
  exceptions, no deadline breaches, every proposal in bounds) becomes
  *eligible* and may be promoted to **canary**: it starts acting, under
  the same deadline/bounds envelope as the incumbent, while the
  promotion gate compares its windowed FCT/queue metrics against the
  incumbent's frozen baseline;
- a gate breach (or ``max_strikes`` consecutive faulty decides)
  **rolls the canary back**: the incumbent resumes acting and the
  candidate sits out a cool-down before it can be promoted again;
- a canary that survives ``canary_ticks`` is **promoted**: it becomes
  the incumbent, the previous incumbent is retired (and kept for
  manual rollback).

The permanent ``static`` record (safe SECN defaults) is always
registered, is always eligible to act, and is the target the plane
falls back to when everything else is demoted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.netsim.ecn import ECNConfig

__all__ = ["STAGES", "BufferedNetwork", "PolicyRecord", "PolicyRegistry",
           "LifecycleError"]

#: legal lifecycle stages.
STAGES = ("shadow", "canary", "promoted", "retired", "suspended")

#: bounded per-policy proposal history (tests + /state introspection).
_PROPOSAL_LOG_CAP = 256


class LifecycleError(RuntimeError):
    """An illegal lifecycle transition was requested."""


class BufferedNetwork:
    """Read-through proxy that buffers ECN writes instead of applying.

    Every ``decide`` in the serve plane — acting or shadow — runs
    against one of these.  Reads (``now``, ``queue_stats``, whatever the
    controller inspects) pass through to the real simulator; the two
    :class:`~repro.core.controller.Actuator` mutators are intercepted
    and recorded.  The plane then flushes the buffer onto the real
    network *only* for an acting policy that returned within its
    deadline — a shadow's buffer is simply dropped, and a late worker
    writing into a stale view mutates nothing.
    """

    def __init__(self, net: Any) -> None:
        self._net = net
        #: ordered ``(switch_or_None, config)`` writes; ``None`` = all.
        self.buffered: List[Tuple[Optional[str], ECNConfig]] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._net, name)

    def set_ecn(self, switch_name: str, config: ECNConfig) -> None:
        self.buffered.append((switch_name, config))

    def set_ecn_all(self, config: ECNConfig) -> None:
        self.buffered.append((None, config))

    def flush(self, net: Optional[Any] = None) -> int:
        """Apply the buffered writes to ``net`` (default: the proxied
        network) in recorded order; returns the number of writes."""
        target = net if net is not None else self._net
        for switch, config in self.buffered:
            if switch is None:
                target.set_ecn_all(config)
            else:
                target.set_ecn(switch, config)
        return len(self.buffered)


@dataclass
class PolicyRecord:
    """One registered policy and its lifecycle bookkeeping."""

    name: str
    controller: Any                       # guarded Controller (decide/set_training)
    stage: str = "shadow"
    registered_tick: int = 0
    #: ticks this policy has been scored in shadow.
    shadow_ticks: int = 0
    #: consecutive clean shadow ticks (faults reset it) — the
    #: promotion-eligibility signal.
    clean_streak: int = 0
    #: lifetime faulty decides (deadline breaches, exceptions,
    #: out-of-bounds writes), across all stages.
    faults: int = 0
    #: consecutive faulty decides; a clean decide and every stage
    #: change reset it.
    strikes: int = 0
    #: canary ticks completed in the current evaluation.
    canary_ticks: int = 0
    #: tick before which this policy may not be (re-)promoted.
    cooldown_until: int = -1
    #: rollback count (gate breaches + three-strike demotions).
    rollbacks: int = 0
    #: checkpoint hot-reload source (None: fixed weights).
    checkpoints: Any = None
    loaded_step: Optional[int] = None
    reloads: int = 0
    reload_failures: int = 0
    last_error: Optional[str] = None
    proposal_log: Deque[Tuple[int, Optional[str], int, int, float]] = field(
        default_factory=lambda: deque(maxlen=_PROPOSAL_LOG_CAP))

    def record_proposals(self, tick: int,
                         buffered: List[Tuple[Optional[str], ECNConfig]]
                         ) -> None:
        for switch, cfg in buffered:
            self.proposal_log.append((tick, switch, cfg.kmin_bytes,
                                      cfg.kmax_bytes, cfg.pmax))

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe record state for ``/state`` and ``/rollout`` replies."""
        return {
            "name": self.name, "stage": self.stage,
            "registered_tick": self.registered_tick,
            "shadow_ticks": self.shadow_ticks,
            "clean_streak": self.clean_streak,
            "faults": self.faults, "strikes": self.strikes,
            "canary_ticks": self.canary_ticks,
            "cooldown_until": self.cooldown_until,
            "rollbacks": self.rollbacks,
            "loaded_step": self.loaded_step, "reloads": self.reloads,
            "reload_failures": self.reload_failures,
            "last_error": self.last_error,
            "proposals": len(self.proposal_log),
        }


class PolicyRegistry:
    """Names → :class:`PolicyRecord`, plus who is incumbent/canary.

    All transitions funnel through here so the invariants hold by
    construction: at most one canary, exactly one incumbent, the static
    record can never leave the registry, and a policy in cool-down
    cannot be promoted.
    """

    #: reserved name of the permanent static-fallback record.
    STATIC = "static"

    def __init__(self, static_controller: Any) -> None:
        self.records: Dict[str, PolicyRecord] = {}
        self.records[self.STATIC] = PolicyRecord(
            name=self.STATIC, controller=static_controller, stage="promoted")
        self.incumbent_name: str = self.STATIC
        self.canary_name: Optional[str] = None
        self.previous_incumbent: Optional[str] = None

    # -- queries -------------------------------------------------------------
    @property
    def incumbent(self) -> PolicyRecord:
        return self.records[self.incumbent_name]

    @property
    def canary(self) -> Optional[PolicyRecord]:
        return self.records.get(self.canary_name) if self.canary_name else None

    def shadows(self) -> List[PolicyRecord]:
        """Records scored-but-not-acting, in registration order."""
        return [r for r in self.records.values()
                if r.stage == "shadow"]

    def eligible(self, name: str, *, min_shadow_ticks: int,
                 tick: int) -> Tuple[bool, str]:
        """(ok, reason) — may ``name`` be promoted to canary now?"""
        rec = self.records.get(name)
        if rec is None:
            return False, f"unknown policy {name!r}"
        if rec.stage != "shadow":
            return False, f"{name} is {rec.stage}, not shadow"
        if self.canary_name is not None:
            return False, f"canary slot taken by {self.canary_name}"
        if tick < rec.cooldown_until:
            return False, (f"{name} cooling down until tick "
                           f"{rec.cooldown_until}")
        if rec.clean_streak < min_shadow_ticks:
            return False, (f"{name} needs {min_shadow_ticks} clean shadow "
                           f"ticks, has {rec.clean_streak}")
        return True, "eligible"

    # -- transitions ---------------------------------------------------------
    def register(self, name: str, controller: Any, *, tick: int,
                 checkpoints: Any = None,
                 loaded_step: Optional[int] = None) -> PolicyRecord:
        if not name or "/" in name:
            raise LifecycleError("policy name must be non-empty, no slashes")
        if name in self.records:
            raise LifecycleError(f"policy {name!r} already registered")
        rec = PolicyRecord(name=name, controller=controller,
                           registered_tick=tick, checkpoints=checkpoints,
                           loaded_step=loaded_step)
        self.records[name] = rec
        return rec

    def promote_to_canary(self, name: str, *, tick: int,
                          min_shadow_ticks: int,
                          force: bool = False) -> PolicyRecord:
        ok, reason = self.eligible(name, min_shadow_ticks=min_shadow_ticks,
                                   tick=tick)
        if not ok and not (force and name in self.records
                           and self.records[name].stage == "shadow"
                           and self.canary_name is None):
            raise LifecycleError(f"cannot promote {name!r}: {reason}")
        rec = self.records[name]
        self._set_stage(rec, "canary")
        rec.canary_ticks = 0
        self.canary_name = name
        return rec

    def rollback_canary(self, *, tick: int, cooldown_ticks: int,
                        reason: str) -> PolicyRecord:
        rec = self.canary
        if rec is None:
            raise LifecycleError("no canary to roll back")
        self.canary_name = None
        return self._back_to_shadow(rec, tick + cooldown_ticks, reason)

    def complete_promotion(self, *, tick: int) -> PolicyRecord:
        rec = self.canary
        if rec is None:
            raise LifecycleError("no canary to promote")
        old = self.incumbent
        if old.name != rec.name:
            self._set_stage(old, "retired" if old.name != self.STATIC
                            else "promoted")
            self.previous_incumbent = old.name
        self._set_stage(rec, "promoted")
        self.incumbent_name = rec.name
        self.canary_name = None
        return rec

    def demote_incumbent(self, *, tick: int, cooldown_ticks: int,
                         reason: str) -> PolicyRecord:
        """Strike-out demotion: the incumbent falls back to static."""
        rec = self.incumbent
        if rec.name == self.STATIC:
            return rec          # static is the floor; nothing below it
        self.incumbent_name = self.STATIC
        self._set_stage(self.records[self.STATIC], "promoted")
        return self._back_to_shadow(rec, tick + cooldown_ticks, reason)

    def suspend(self, name: str, *, reason: str) -> PolicyRecord:
        """Stop scoring a persistently faulty shadow (wedged decides)."""
        rec = self.records[name]
        if rec.name == self.STATIC:
            raise LifecycleError("cannot suspend the static fallback")
        if self.canary_name == rec.name:
            self.canary_name = None
        if self.incumbent_name == rec.name:
            self.incumbent_name = self.STATIC
            self._set_stage(self.records[self.STATIC], "promoted")
        self._set_stage(rec, "suspended")
        rec.last_error = reason
        return rec

    @staticmethod
    def _set_stage(rec: PolicyRecord, stage: str) -> None:
        rec.stage, rec.strikes = stage, 0    # a stage change clears strikes

    def _back_to_shadow(self, rec: PolicyRecord, cooldown_until: int,
                        reason: str) -> PolicyRecord:
        """Rollback/demotion: shadow again, cooling down, one more rollback."""
        self._set_stage(rec, "shadow")
        rec.cooldown_until = cooldown_until
        rec.clean_streak = 0
        rec.rollbacks += 1
        rec.last_error = reason
        return rec

    def snapshot(self) -> Dict[str, Any]:
        return {
            "incumbent": self.incumbent_name,
            "canary": self.canary_name,
            "previous_incumbent": self.previous_incumbent,
            "policies": {name: rec.snapshot()
                         for name, rec in sorted(self.records.items())},
        }
