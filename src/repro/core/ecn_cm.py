"""ECN Configuration Module (paper §4.4.2).

The ECN-CM sits between the DRL agent and the queues: it decodes the
agent's discrete action into concrete ``(Kmin, Kmax, Pmax)`` thresholds
(via the :class:`~repro.core.action.ActionCodec`) and delivers the
resulting configuration template to the queue-management module —
rate-limited so two tuning operations are never closer than Δt, since
"too frequent ECN marking threshold tuning operations can impose high
pressure on the switch and cause performance oscillations" (§4.2.2).
"""

from __future__ import annotations

from typing import Optional

from repro.core.action import ActionCodec
from repro.netsim.ecn import ECNConfig

__all__ = ["ECNConfigModule"]


class ECNConfigModule:
    """Per-switch action decoder and rate-limited applier."""

    def __init__(self, switch: str, codec: ActionCodec, min_interval: float) -> None:
        if min_interval < 0:
            raise ValueError("min_interval must be non-negative")
        self.switch = switch
        self.codec = codec
        self.min_interval = min_interval
        self.last_applied_time: Optional[float] = None
        self.current: Optional[ECNConfig] = None
        self.applied = 0
        self.suppressed = 0

    def apply(self, action_id: int, now: float, network) -> Optional[ECNConfig]:
        """Decode and push an action; returns the config, or None if the
        tuning was suppressed by the Δt rate limit."""
        if self.last_applied_time is not None and now < self.last_applied_time:
            # Virtual time went backwards: the controller was moved to a
            # fresh simulation (offline training -> deployment); restart
            # the rate-limit clock instead of suppressing forever.
            self.last_applied_time = None
        if (self.last_applied_time is not None
                and now - self.last_applied_time < self.min_interval - 1e-12):
            self.suppressed += 1
            return None
        config = self.codec.decode(action_id)
        network.set_ecn(self.switch, config)
        self.current = config
        self.last_applied_time = now
        self.applied += 1
        return config
