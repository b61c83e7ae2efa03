"""Output-queued switch with ECMP forwarding and per-port RED/ECN.

Each switch owns a set of :class:`~repro.netsim.link.OutputPort` objects
and a routing table mapping destination hosts to lists of candidate
ports (equal-cost next hops).  ECMP picks among the live next hops by
flow hash, so a flow stays on one path (no reordering) but different
flows spread across the fabric.  After a link-state change
:func:`withdraw_dead_routes` drops every next hop that can no longer
reach the destination, on every switch, so a failed link is routed
around wherever it sits — what lets the Fig. 7 robustness experiment
recover.

The switch is also the unit the paper attaches one RL agent to: the PET
controller reads aggregated statistics across the switch's ports and
applies one ECN configuration to all of its queues.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.netsim.ecn import ECNConfig
from repro.netsim.link import OutputPort
from repro.netsim.packet import Packet
from repro.netsim.routing import ecmp_hash as _ecmp_hash

__all__ = ["SwitchNode", "withdraw_dead_routes"]


class SwitchNode:
    """A switch: forwarding plane plus the queues an agent tunes."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.ports: List[OutputPort] = []
        #: destination host name -> list of port indices (equal cost).
        self.routes: Dict[Any, List[int]] = {}
        #: ``routes`` less the next hops that cannot reach the destination
        #: any more (:func:`withdraw_dead_routes`)
        self.next_hops: Dict[Any, List[int]] = {}
        self.forwarded = 0
        self.routing_drops = 0

    def add_port(self, port: OutputPort) -> int:
        self.ports.append(port)
        return len(self.ports) - 1

    def set_route(self, dst: Any, port_indices: List[int]) -> None:
        if not port_indices:
            raise ValueError("route needs at least one port")
        for i in port_indices:
            if not 0 <= i < len(self.ports):
                raise IndexError(f"port index {i} out of range")
        self.routes[dst] = list(port_indices)
        self.next_hops[dst] = list(port_indices)

    # -- datapath ---------------------------------------------------------
    def receive(self, pkt: Packet) -> None:
        # the own-port check covers a port taken down behind the
        # network's back; after a withdrawal it removes nothing
        candidates = self.next_hops.get(pkt.dst)
        if not candidates:
            self.routing_drops += 1
            return
        live = [i for i in candidates if self.ports[i].up]
        if not live:
            self.routing_drops += 1
            return
        port = self.ports[live[_ecmp_hash(pkt.flow_id, len(live))]]
        self.forwarded += 1
        port.send(pkt)

    # -- agent-facing control & stats --------------------------------------
    def set_ecn_all(self, config: ECNConfig) -> None:
        """Apply one ECN configuration to every marking queue (ECN-CM)."""
        for port in self.ports:
            if port.marker is not None:
                port.set_ecn(config)

    def current_ecn(self) -> Optional[ECNConfig]:
        for port in self.ports:
            if port.marker is not None:
                return port.marker.config
        return None

    def total_qlen_bytes(self) -> int:
        return sum(p.qlen_bytes for p in self.ports)

    def max_qlen_bytes(self) -> int:
        return max((p.qlen_bytes for p in self.ports), default=0)

    def aggregate_capacity_bps(self) -> float:
        return sum(p.rate_bps for p in self.ports if p.up)


def withdraw_dead_routes(switches: Iterable[SwitchNode]) -> None:
    """Recompute every switch's ``next_hops`` after a link-state change:
    a candidate port stays if it is up and its peer can still reach the
    destination — a host by being it, a switch by having a next hop
    left.  Up-down routes are loop-free, so the memoized walk ends."""
    memo: Dict[Tuple[int, Any], List[int]] = {}

    def hops(sw: SwitchNode, dst: Any) -> List[int]:
        key = (id(sw), dst)
        if key not in memo:
            memo[key] = [i for i in sw.routes.get(dst, ())
                         if sw.ports[i].up and reaches(sw.ports[i].peer, dst)]
        return memo[key]

    def reaches(node: Any, dst: Any) -> bool:
        if isinstance(node, SwitchNode):
            return bool(hops(node, dst))
        return getattr(node, "name", None) == dst

    for sw in switches:
        sw.next_hops = {dst: hops(sw, dst) for dst in sw.routes}
