"""Byte-based drop-tail queue with time-weighted occupancy statistics.

Each switch egress port owns one :class:`ByteQueue`.  Besides FIFO
packet storage, the queue keeps:

- a time-weighted average occupancy (for the reward's ``1/avg_qlen``),
- interval counters for dequeued bytes / ECN-marked dequeued bytes
  (txRate, txRate^(m) of the paper's state vector),
- a per-flow observation table (flow id → src, dst, cumulative bytes,
  last-seen) that :meth:`PacketNetwork.queue_stats
  <repro.netsim.network.PacketNetwork.queue_stats>` copies into the
  records the Network Condition Monitor reads, dropping finished flows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional

from repro.netsim.packet import Packet

__all__ = ["ByteQueue", "FlowObservation", "QueueCounters"]


@dataclass
class FlowObservation:
    """What a queue has seen of one flow (NCM raw input)."""

    flow_id: int
    src: Any
    dst: Any
    bytes_seen: int
    last_seen: float


@dataclass
class QueueCounters:
    """Monotonic counters; interval deltas are taken by the stats reader."""

    enqueued_pkts: int = 0
    enqueued_bytes: int = 0
    dequeued_pkts: int = 0
    dequeued_bytes: int = 0
    dequeued_marked_bytes: int = 0
    dropped_pkts: int = 0
    dropped_bytes: int = 0


class ByteQueue:
    """FIFO packet queue bounded in bytes."""

    def __init__(self, capacity_bytes: int = 2_000_000) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._q: Deque[Packet] = deque()
        self.qlen_bytes = 0
        self.counters = QueueCounters()
        # time-weighted average accumulators
        self._tw_area = 0.0          # integral of qlen over time
        self._tw_last_t = 0.0
        self._tw_start_t = 0.0
        # per-flow observations for the NCM
        self.flow_obs: Dict[int, FlowObservation] = {}

    # -- occupancy integral --------------------------------------------------
    def _advance_time(self, now: float) -> None:
        if now > self._tw_last_t:
            self._tw_area += self.qlen_bytes * (now - self._tw_last_t)
            self._tw_last_t = now

    def time_avg_qlen(self, now: float) -> float:
        """Time-weighted average occupancy since the last stats reset."""
        self._advance_time(now)
        elapsed = self._tw_last_t - self._tw_start_t
        if elapsed <= 0:
            return float(self.qlen_bytes)
        return self._tw_area / elapsed

    def reset_time_avg(self, now: float) -> None:
        self._advance_time(now)
        self._tw_area = 0.0
        self._tw_start_t = now
        self._tw_last_t = now

    # -- queue ops -------------------------------------------------------------
    def enqueue(self, pkt: Packet, now: float) -> bool:
        """Append a packet; returns False (and counts a drop) when full."""
        self._advance_time(now)
        if self.qlen_bytes + pkt.size_bytes > self.capacity_bytes:
            self.counters.dropped_pkts += 1
            self.counters.dropped_bytes += pkt.size_bytes
            return False
        self._q.append(pkt)
        self.qlen_bytes += pkt.size_bytes
        self.counters.enqueued_pkts += 1
        self.counters.enqueued_bytes += pkt.size_bytes
        self._observe(pkt, now)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._q:
            return None
        self._advance_time(now)
        pkt = self._q.popleft()
        self.qlen_bytes -= pkt.size_bytes
        self.counters.dequeued_pkts += 1
        self.counters.dequeued_bytes += pkt.size_bytes
        if pkt.marked:
            self.counters.dequeued_marked_bytes += pkt.size_bytes
        return pkt

    def dequeue_first_control(self, now: float) -> Optional[Packet]:
        """Pull the earliest control (ACK/CNP) packet, skipping data.

        Used by PFC-paused ports: control traffic rides a separate
        priority class that PFC of the data class does not pause, so a
        paused port may still drain ACKs/CNPs (out of order with data).
        """
        for i, pkt in enumerate(self._q):
            if pkt.is_control():
                self._advance_time(now)
                del self._q[i]
                self.qlen_bytes -= pkt.size_bytes
                self.counters.dequeued_pkts += 1
                self.counters.dequeued_bytes += pkt.size_bytes
                return pkt
        return None

    def __len__(self) -> int:
        return len(self._q)

    @property
    def empty(self) -> bool:
        return not self._q

    # -- NCM raw observations ----------------------------------------------------
    def _observe(self, pkt: Packet, now: float) -> None:
        if pkt.is_control():
            return
        obs = self.flow_obs.get(pkt.flow_id)
        if obs is None:
            self.flow_obs[pkt.flow_id] = FlowObservation(
                pkt.flow_id, pkt.src, pkt.dst, pkt.size_bytes, now)
        else:
            obs.bytes_seen += pkt.size_bytes
            obs.last_seen = now
