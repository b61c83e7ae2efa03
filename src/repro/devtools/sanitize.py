"""Runtime simulation sanitizer — invariant checks on every event.

When enabled, :class:`SimSanitizer` instruments the packet-level
simulator's hot paths (event engine, byte queues, RED markers, switch
datapath, ECN application) with O(1) invariant checks:

- **time-monotonic** — virtual ``now`` never decreases across executed
  events;
- **queue-bounds** — every ``ByteQueue`` keeps ``0 <= qlen_bytes <=
  capacity_bytes``;
- **packet-conservation** — per queue, ``enqueued == dequeued +
  resident`` for both packet and byte counters (drops are counted
  separately and never enter the queue);
- **switch-conservation** — every packet handed to a switch is either
  forwarded or counted as a routing drop;
- **red-probability** — the RED marking probability evaluates inside
  ``[0, 1]`` for every marking decision;
- **ecn-thresholds** — ``Kmin <= Kmax`` and ``0 <= Pmax <= 1`` on every
  PET/ACC/baseline action application (``SwitchNode.set_ecn_all``,
  ``PacketNetwork.set_ecn``, ``FluidNetwork.set_ecn``);
- **ecn-bounds** — applied thresholds are finite and ``Kmax`` stays
  under :data:`ECN_KMAX_CEILING_BYTES` (well above the action codec's
  representable range), so a faulted or quarantine-recovering
  controller can never push an absurd config onto a switch
  (``docs/RESILIENCE.md``).

Violations raise :class:`InvariantViolation` (an ``AssertionError``
subclass, so a sanitized pytest run fails loudly) carrying the virtual
time, the offending component, and a context dict.

Enablement (any of):

- ``PET_SANITIZE=1`` in the environment (the repo's ``conftest.py``
  turns the sanitizer on for the whole test suite unless
  ``PET_SANITIZE=0``);
- ``python -m repro --sanitize ...`` on the CLI;
- programmatically via :func:`enable` / :func:`disable`.

The checks are installed by wrapping methods on the simulator classes,
so a disabled sanitizer costs nothing on the hot path.
"""

from __future__ import annotations

import math
import os
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "InvariantViolation", "SimSanitizer", "ECN_KMAX_CEILING_BYTES",
    "enable", "disable", "is_enabled", "active", "enabled_from_env",
]

#: ceiling for an applied ``Kmax`` (bytes).  The action codec tops out at
#: ``alpha * 2^9 = 10.24 MB`` and switch buffers at 9 MB; anything above
#: this is a corrupted or runaway configuration, not a tuning decision.
ECN_KMAX_CEILING_BYTES = 128_000_000


class InvariantViolation(AssertionError):
    """A simulation invariant failed; carries structured event context."""

    def __init__(self, invariant: str, message: str, *,
                 time: Optional[float] = None,
                 component: Optional[str] = None,
                 context: Optional[Dict[str, Any]] = None) -> None:
        self.invariant = invariant
        self.time = time
        self.component = component
        self.context: Dict[str, Any] = dict(context or {})
        parts = [f"[{invariant}] {message}"]
        if component is not None:
            parts.append(f"component={component}")
        if time is not None:
            parts.append(f"t={time:.9f}")
        if self.context:
            ctx = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
            parts.append(f"context: {ctx}")
        super().__init__(" | ".join(parts))


class SimSanitizer:
    """Installs/uninstalls invariant-checking wrappers on netsim classes."""

    def __init__(self) -> None:
        self.installed = False
        self.events_checked = 0
        self.queue_checks = 0
        self.marker_checks = 0
        self.action_checks = 0
        self.violations_raised = 0
        self._saved: List[Tuple[type, str, Any]] = []

    # -- reporting ---------------------------------------------------------
    def report(self) -> Dict[str, int]:
        return {
            "events_checked": self.events_checked,
            "queue_checks": self.queue_checks,
            "marker_checks": self.marker_checks,
            "action_checks": self.action_checks,
            "violations_raised": self.violations_raised,
        }

    def _raise(self, invariant: str, message: str, **kwargs: Any) -> None:
        self.violations_raised += 1
        raise InvariantViolation(invariant, message, **kwargs)

    # -- individual invariant checks ------------------------------------------
    def check_queue(self, queue: Any, now: Optional[float] = None,
                    component: str = "ByteQueue") -> None:
        """Bounds + conservation for one :class:`ByteQueue` (O(1))."""
        self.queue_checks += 1
        c = queue.counters
        qlen = queue.qlen_bytes
        if qlen < 0 or qlen > queue.capacity_bytes:
            self._raise(
                "queue-bounds",
                f"qlen_bytes={qlen} outside [0, {queue.capacity_bytes}]",
                time=now, component=component,
                context={"resident_pkts": len(queue),
                         "enqueued_bytes": c.enqueued_bytes,
                         "dequeued_bytes": c.dequeued_bytes})
        if (c.enqueued_pkts - c.dequeued_pkts != len(queue)
                or c.enqueued_bytes - c.dequeued_bytes != qlen):
            self._raise(
                "packet-conservation",
                "enqueued != dequeued + resident",
                time=now, component=component,
                context={"enqueued_pkts": c.enqueued_pkts,
                         "dequeued_pkts": c.dequeued_pkts,
                         "resident_pkts": len(queue),
                         "enqueued_bytes": c.enqueued_bytes,
                         "dequeued_bytes": c.dequeued_bytes,
                         "qlen_bytes": qlen,
                         "dropped_pkts": c.dropped_pkts})

    #: per-instance override point for the ``ecn-bounds`` ceiling.
    ecn_kmax_ceiling_bytes: int = ECN_KMAX_CEILING_BYTES

    def check_ecn_config(self, config: Any, now: Optional[float] = None,
                         component: str = "ECNConfig") -> None:
        """``Kmin <= Kmax``, ``Pmax`` in [0, 1], and absolute bounds
        (finite, ``Kmax`` under the ceiling) for an applied action."""
        self.action_checks += 1
        if not (math.isfinite(float(config.kmin_bytes))
                and math.isfinite(float(config.kmax_bytes))
                and math.isfinite(float(config.pmax))):
            self._raise(
                "ecn-bounds",
                "non-finite threshold in applied ECN config",
                time=now, component=component,
                context={"kmin_bytes": config.kmin_bytes,
                         "kmax_bytes": config.kmax_bytes,
                         "pmax": config.pmax})
        if config.kmax_bytes > self.ecn_kmax_ceiling_bytes:
            self._raise(
                "ecn-bounds",
                f"Kmax ({config.kmax_bytes}) exceeds the "
                f"{self.ecn_kmax_ceiling_bytes}-byte ceiling",
                time=now, component=component,
                context={"kmax_bytes": config.kmax_bytes,
                         "ceiling_bytes": self.ecn_kmax_ceiling_bytes})
        if config.kmin_bytes < 0 or config.kmin_bytes > config.kmax_bytes:
            self._raise(
                "ecn-thresholds",
                f"Kmin ({config.kmin_bytes}) > Kmax ({config.kmax_bytes})",
                time=now, component=component,
                context={"kmin_bytes": config.kmin_bytes,
                         "kmax_bytes": config.kmax_bytes})
        if not 0.0 <= config.pmax <= 1.0:
            self._raise(
                "ecn-thresholds",
                f"Pmax ({config.pmax}) outside [0, 1]",
                time=now, component=component,
                context={"pmax": config.pmax})

    def check_network(self, network: Any) -> None:
        """One-shot audit of every switch queue in a PacketNetwork."""
        now = getattr(network, "now", None)
        for sw in network.topology.switches():
            for i, port in enumerate(sw.ports):
                self.check_queue(port.queue, now,
                                 component=f"{sw.name}.port[{i}]")
            ecn = sw.current_ecn()
            if ecn is not None:
                self.check_ecn_config(ecn, now, component=sw.name)

    # -- installation ----------------------------------------------------------
    def _patch(self, cls: type, name: str, wrapper: Any) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def install(self) -> "SimSanitizer":
        if self.installed:
            return self
        from repro.netsim import ecn as _ecn
        from repro.netsim import engine as _engine
        from repro.netsim import fluid as _fluid
        from repro.netsim import network as _network
        from repro.netsim import queueing as _queueing
        from repro.netsim import switch as _switch

        san = self

        # --- engine: monotonic virtual time, checked at every event ----
        orig_schedule_at = _engine.Simulator.schedule_at

        def schedule_at(sim, time, fn, *args):
            def _checked(*a):
                last = getattr(sim, "_san_last_now", None)
                if last is not None and sim.now < last:
                    san._raise(
                        "time-monotonic",
                        f"virtual time went backwards: now={sim.now!r} < "
                        f"previously observed {last!r}",
                        time=sim.now, component="Simulator",
                        context={"events_processed": sim.events_processed})
                sim._san_last_now = sim.now
                san.events_checked += 1
                return fn(*a)
            return orig_schedule_at(sim, time, _checked, *args)

        self._patch(_engine.Simulator, "schedule_at", schedule_at)

        # --- queues: bounds + conservation after every operation --------
        orig_enqueue = _queueing.ByteQueue.enqueue
        orig_dequeue = _queueing.ByteQueue.dequeue
        orig_dequeue_ctrl = _queueing.ByteQueue.dequeue_first_control

        def enqueue(q, pkt, now):
            ok = orig_enqueue(q, pkt, now)
            san.check_queue(q, now)
            return ok

        def dequeue(q, now):
            pkt = orig_dequeue(q, now)
            san.check_queue(q, now)
            return pkt

        def dequeue_first_control(q, now):
            pkt = orig_dequeue_ctrl(q, now)
            san.check_queue(q, now)
            return pkt

        self._patch(_queueing.ByteQueue, "enqueue", enqueue)
        self._patch(_queueing.ByteQueue, "dequeue", dequeue)
        self._patch(_queueing.ByteQueue, "dequeue_first_control",
                    dequeue_first_control)

        # --- RED marker: probability stays a probability -----------------
        orig_should_mark = _ecn.ECNMarker.should_mark

        def should_mark(marker, qlen_bytes):
            san.marker_checks += 1
            if qlen_bytes < 0:
                san._raise("queue-bounds",
                           f"negative queue length {qlen_bytes} passed to marker",
                           component="ECNMarker")
            p = marker.config.marking_probability(qlen_bytes)
            if not 0.0 <= p <= 1.0 or p != p:
                san._raise(
                    "red-probability",
                    f"marking probability {p!r} outside [0, 1]",
                    component="ECNMarker",
                    context={"qlen_bytes": qlen_bytes,
                             "kmin_bytes": marker.config.kmin_bytes,
                             "kmax_bytes": marker.config.kmax_bytes,
                             "pmax": marker.config.pmax})
            return orig_should_mark(marker, qlen_bytes)

        self._patch(_ecn.ECNMarker, "should_mark", should_mark)

        # --- switch: every received packet is forwarded or dropped -------
        orig_receive = _switch.SwitchNode.receive

        def receive(sw, pkt):
            base = getattr(sw, "_san_base", None)
            if base is None:
                base = sw.forwarded + sw.routing_drops
                sw._san_base = base
                sw._san_rx = 0
            orig_receive(sw, pkt)
            sw._san_rx += 1
            if sw.forwarded + sw.routing_drops - base != sw._san_rx:
                san._raise(
                    "switch-conservation",
                    "received packets != forwarded + routing drops",
                    component=sw.name,
                    context={"received": sw._san_rx,
                             "forwarded": sw.forwarded,
                             "routing_drops": sw.routing_drops})

        self._patch(_switch.SwitchNode, "receive", receive)

        # --- action application: thresholds sane after every tuning ------
        orig_set_ecn_all = _switch.SwitchNode.set_ecn_all

        def set_ecn_all(sw, config):
            san.check_ecn_config(config, component=sw.name)
            return orig_set_ecn_all(sw, config)

        self._patch(_switch.SwitchNode, "set_ecn_all", set_ecn_all)

        orig_net_set_ecn = _network.PacketNetwork.set_ecn

        def net_set_ecn(net, switch_name, config):
            san.check_ecn_config(config, now=net.now, component=switch_name)
            return orig_net_set_ecn(net, switch_name, config)

        self._patch(_network.PacketNetwork, "set_ecn", net_set_ecn)

        # Patch the mixin, not FluidNetwork: set_ecn is defined on
        # SwitchStatsMixin, so every fluid-family network (monolithic
        # leaf–spine and the sharded fat-tree) gets the bounds check.
        orig_fluid_set_ecn = _fluid.SwitchStatsMixin.set_ecn

        def fluid_set_ecn(net, switch_name, config):
            san.check_ecn_config(config, now=net.now, component=switch_name)
            return orig_fluid_set_ecn(net, switch_name, config)

        self._patch(_fluid.SwitchStatsMixin, "set_ecn", fluid_set_ecn)

        self.installed = True
        return self

    def uninstall(self) -> None:
        if not self.installed:
            return
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()
        self.installed = False

    # -- context manager ------------------------------------------------------
    def __enter__(self) -> "SimSanitizer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()


# -- module-level singleton ---------------------------------------------------

_active: Optional[SimSanitizer] = None


def enable() -> SimSanitizer:
    """Install the global sanitizer (idempotent); returns it."""
    global _active
    if _active is None:
        _active = SimSanitizer().install()
    return _active


def disable() -> None:
    """Uninstall the global sanitizer, restoring the original methods."""
    global _active
    if _active is not None:
        _active.uninstall()
        _active = None


def is_enabled() -> bool:
    return _active is not None


def active() -> Optional[SimSanitizer]:
    return _active


def enabled_from_env(default: bool = False) -> bool:
    """Interpret the ``PET_SANITIZE`` environment variable."""
    raw = os.environ.get("PET_SANITIZE")
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "off", "no", "")
