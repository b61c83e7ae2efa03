"""Packet-level network facade — the simulator API the controllers see.

:class:`PacketNetwork` assembles engine + topology + transports and
exposes exactly what an ECN-tuning controller needs:

- ``advance(dt)`` — run the event loop for one tuning interval,
- ``queue_stats()`` — per-switch interval statistics (the raw material
  of the paper's six-factor state),
- ``set_ecn(switch, config)`` — the knob (ECN-CM applies it),
- flow injection and FCT / per-packet-latency collection,
- the fabric-link faults of paper Fig. 7 and the chaos matrix
  (``fail_uplinks``, ``restore_uplinks``, ``set_fabric_capacity_factor``).

The fluid model (:mod:`repro.netsim.fluid`) implements the same
interface, so controllers and the gym bridge are simulator-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netsim.ecn import ECNConfig
from repro.netsim.engine import Simulator
from repro.netsim.fattree import FatTreeConfig, FatTreeTopology
from repro.netsim.flow import Flow
from repro.netsim.packet import Packet
from repro.netsim.queueing import FlowObservation
from repro.obs.metrics import get_registry
from repro.netsim.switch import SwitchNode, withdraw_dead_routes
from repro.netsim.topology import LeafSpineTopology, TopologyConfig

__all__ = ["FlowRows", "QueueStats", "PacketNetwork"]

#: transport name -> its class in :mod:`repro.netsim.transport`, which
#: is imported when a packet network is built, not by every importer of
#: :class:`QueueStats`.
_TRANSPORTS = {"dcqcn": "DCQCNTransport", "dctcp": "DCTCPTransport",
               "hpcc": "HPCCTransport"}


class FlowRows:
    """The per-flow observations of one collection, every switch's: five
    int64 columns ``(switch index, flow id, src host id, dst host id,
    bytes seen)``, one row per (flow, switch), a switch's rows oldest
    observation first.  A flow id is kept as its 64 bits, so an id from
    ``2**63`` reads negative.  The records of the collection share it,
    each as ``(table, its switch index)``.  Tables compare and print by
    value, so records compare and fingerprint by what they observed."""

    def __init__(self, columns: Tuple[np.ndarray, ...]) -> None:
        self._columns = columns

    def rows(self) -> Tuple[np.ndarray, ...]:
        """The five columns."""
        return self._columns

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowRows):
            return NotImplemented
        return all(np.array_equal(a, b)
                   for a, b in zip(self.rows(), other.rows()))

    def __repr__(self) -> str:
        names = ("switch", "flow", "src", "dst", "bytes")
        return "FlowRows({})".format(", ".join(
            f"{n}={c.tolist()}" for n, c in zip(names, self.rows())))


@dataclass
class QueueStats:
    """Per-switch statistics over one monitoring interval.

    These are the directly-available quantities of the paper's state
    category 1 (qlen, txRate, txRate^(m), current ECN) plus the raw
    per-flow observations the NCM turns into the category-2 quantities
    (incast degree, mice/elephant ratio): ``flow_rows``, the
    collection's :class:`FlowRows` and this switch's index in it
    (``None`` on a per-port record).
    """

    switch: str
    interval: float
    qlen_bytes: float            # instantaneous, summed over ports
    max_port_qlen_bytes: float   # worst single queue
    avg_qlen_bytes: float        # time-weighted over the interval
    tx_bytes: int
    tx_marked_bytes: int
    dropped_pkts: int
    capacity_bps: float          # aggregate live egress capacity
    ecn: Optional[ECNConfig]
    n_queues: int = 1            # egress queues aggregated into this record
    flow_rows: Optional[Tuple[FlowRows, int]] = field(default=None,
                                                      repr=False)

    @property
    def avg_qlen_per_queue(self) -> float:
        """Time-averaged occupancy per egress queue (the paper's per-queue
        ``queueLength_avg`` of Eq. 8 — our stats aggregate a whole switch)."""
        return self.avg_qlen_bytes / max(self.n_queues, 1)

    @property
    def tx_rate_bps(self) -> float:
        return self.tx_bytes * 8.0 / self.interval if self.interval > 0 else 0.0

    @property
    def tx_marked_rate_bps(self) -> float:
        return self.tx_marked_bytes * 8.0 / self.interval if self.interval > 0 else 0.0

    @property
    def utilization(self) -> float:
        """txRate / BW, the T term of the paper's reward (Eq. 7)."""
        if self.capacity_bps <= 0:
            return 0.0
        return min(self.tx_rate_bps / self.capacity_bps, 1.0)


class PacketNetwork:
    """Assembled packet-level simulation."""

    def __init__(self, config: Optional[TopologyConfig | FatTreeConfig] = None,
                 *, transport: str = "dcqcn", seed: Optional[int] = 0,
                 latency_sample_cap: int = 200_000,
                 transport_kwargs: Optional[dict] = None) -> None:
        if transport not in _TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}; "
                             f"choose from {sorted(_TRANSPORTS)}")
        self.config = config or TopologyConfig()
        if transport == "hpcc" and not self.config.int_enabled:
            # HPCC needs telemetry; enable it transparently.
            self.config.int_enabled = True
        self.sim = Simulator()
        self.rng = np.random.default_rng(seed)
        # The two builders expose the same duck-typed surface (hosts,
        # switches(), node(), fabric_ports, uplink_ports); everything below is
        # topology-agnostic.
        if isinstance(self.config, FatTreeConfig):
            self.topology: LeafSpineTopology | FatTreeTopology = \
                FatTreeTopology(self.config, self.sim, rng=self.rng)
        else:
            self.topology = LeafSpineTopology(self.config, self.sim,
                                              rng=self.rng)
        self.transport_name = transport
        self.flows: Dict[int, Flow] = {}
        self.finished_flows: List[Flow] = []
        self.latencies: List[Tuple[float, float]] = []   # (deliver_time, latency)
        self._latency_cap = latency_sample_cap
        self._install_transports(transport, transport_kwargs or {})
        # per-port counter baselines for interval deltas
        self._port_baseline: Dict[Tuple[str, int], Tuple[int, int, int]] = {}
        # switch name -> flat list of (tx, marked, drops) baselines
        # parallel to sw.ports (no tuple-key hashing per port).
        self._switch_baseline: Dict[str, List[Tuple[int, int, int]]] = {}
        self._switch_list = list(self.topology.switches())
        #: host name -> host index, the host ids of the records' flow table
        self._host_index = {h.name: i for i, h in
                            enumerate(self.topology.hosts)}
        self._last_stats_time = 0.0
        self._reset_baselines()
        # the builders list each fabric link's two directions one after
        # the other in ``fabric_ports`` and ``uplink_ports``
        self._fabric_ports = [self.topology.node(sw).ports[i]
                              for sw, i in self.topology.fabric_ports]
        ports = [self.topology.node(sw).ports[i]
                 for sw, i in self.topology.uplink_ports]
        self._uplinks = list(zip(ports[0::2], ports[1::2]))
        self._fabric_nominal_bps = [p.rate_bps for p in self._fabric_ports]
        self.fabric_capacity_factor = 1.0

    # -- wiring -------------------------------------------------------------
    def _install_transports(self, transport: str, kwargs: dict) -> None:
        from repro.netsim import transport as transports
        cls = getattr(transports, _TRANSPORTS[transport])
        for h in self.topology.hosts:
            t = cls(self.sim, h, **kwargs)
            t._flow_size_lookup = self._flow_size         # type: ignore[assignment]
            t._flow_completed_cb = self._flow_completed    # type: ignore[assignment]
            h.attach_transport(t)
            h.on_data_delivered = self._record_latency

    def _flow_size(self, flow_id: int) -> int:
        f = self.flows.get(flow_id)
        return f.size_bytes if f is not None else 0

    def _flow_completed(self, flow_id: int, t: float) -> None:
        f = self.flows.get(flow_id)
        if f is not None and f.finish_time is None:
            f.finish_time = t
            self.finished_flows.append(f)

    def _record_latency(self, pkt: Packet) -> None:
        if len(self.latencies) < self._latency_cap:
            self.latencies.append((pkt.deliver_time, pkt.latency()))

    # -- flow injection ------------------------------------------------------
    def start_flow(self, flow: Flow) -> None:
        """Register a flow; transmission starts at ``flow.start_time``."""
        if flow.flow_id in self.flows:
            raise ValueError(f"duplicate flow id {flow.flow_id}")
        self.flows[flow.flow_id] = flow
        src = self.topology.node(flow.src)
        delay = flow.start_time - self.sim.now
        if delay <= 0:
            flow.start_time = self.sim.now
            src.transport.start_flow(flow)
        else:
            self.sim.schedule(delay, src.transport.start_flow, flow)

    def start_flows(self, flows: List[Flow]) -> None:
        for f in flows:
            self.start_flow(f)

    # -- time ---------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def advance(self, dt: float) -> None:
        """Run the event loop for ``dt`` seconds of virtual time."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.sim.run(until=self.sim.now + dt)
        reg = get_registry()
        if reg:
            reg.inc("netsim.advance_calls", sim="packet")
            reg.inc("netsim.virtual_s", dt, sim="packet")

    # -- statistics -----------------------------------------------------------
    def _reset_baselines(self) -> None:
        now = self.sim.now
        for sw in self._switch_list:
            baselines = []
            for i, port in enumerate(sw.ports):
                c = port.queue.counters
                snap = (c.dequeued_bytes, c.dequeued_marked_bytes,
                        c.dropped_pkts)
                self._port_baseline[(sw.name, i)] = snap
                baselines.append(snap)
                port.queue.reset_time_avg(now)
            self._switch_baseline[sw.name] = baselines
        self._last_stats_time = now

    def queue_stats(self) -> Dict[str, QueueStats]:
        """Interval stats per switch; resets the interval afterwards.

        The records' :class:`FlowRows` lists each switch's flows still
        active now, with the bytes its queues have seen of them, in the
        order its queues last saw them (a later port's observation of a
        flow wins); finished flows are dropped from the queues' tables
        here."""
        get_registry().inc("netsim.stats_collections", sim="packet")
        now = self.sim.now
        interval = max(now - self._last_stats_time, 1e-12)
        out: Dict[str, QueueStats] = {}
        flows, host = self.flows, self._host_index
        rows: List[Tuple[int, int, int, int, int]] = []
        for s, sw in enumerate(self._switch_list):
            tx = marked = drops = 0
            avg_q = 0.0
            merged: Dict[int, FlowObservation] = {}
            # Baselines read positionally from the per-switch list —
            # the same integers ``_port_baseline`` holds for
            # ``port_stats()``, without per-port key construction.
            for (b_tx, b_m, b_d), port in zip(
                    self._switch_baseline[sw.name], sw.ports):
                c = port.queue.counters
                tx += c.dequeued_bytes - b_tx
                marked += c.dequeued_marked_bytes - b_m
                drops += c.dropped_pkts - b_d
                avg_q += port.queue.time_avg_qlen(now)
                seen = port.queue.flow_obs
                for fid in [f for f in seen if flows[f].done]:
                    del seen[fid]
                merged.update(seen)
            rows += [(s, o.flow_id, host[o.src], host[o.dst], o.bytes_seen)
                     for o in sorted(merged.values(),
                                     key=lambda o: o.last_seen)]
            out[sw.name] = QueueStats(
                switch=sw.name, interval=interval,
                qlen_bytes=float(sw.total_qlen_bytes()),
                max_port_qlen_bytes=float(sw.max_qlen_bytes()),
                avg_qlen_bytes=avg_q,
                tx_bytes=tx, tx_marked_bytes=marked, dropped_pkts=drops,
                capacity_bps=sw.aggregate_capacity_bps(),
                ecn=sw.current_ecn(), n_queues=len(sw.ports))
        # every value is non-negative; a flow id's 64 bits are kept as
        # int64, so ids from 2**63 read negative
        table = FlowRows(tuple(np.array(rows, dtype=np.uint64)
                                .reshape(-1, 5).T.copy().view(np.int64)))
        for s, st in enumerate(out.values()):
            st.flow_rows = (table, s)
        self._reset_baselines()
        return out

    def port_stats(self) -> Dict[Tuple[str, int], QueueStats]:
        """Per-port interval statistics (multi-queue mode, paper §4.5.2).

        Unlike :meth:`queue_stats` this does NOT reset the interval — call
        one or the other per tuning interval, not both, or call this first.
        """
        now = self.sim.now
        interval = max(now - self._last_stats_time, 1e-12)
        out: Dict[Tuple[str, int], QueueStats] = {}
        for sw in self.topology.switches():
            for i, port in enumerate(sw.ports):
                c = port.queue.counters
                b_tx, b_m, b_d = self._port_baseline[(sw.name, i)]
                out[(sw.name, i)] = QueueStats(
                    switch=sw.name, interval=interval,
                    qlen_bytes=float(port.qlen_bytes),
                    max_port_qlen_bytes=float(port.qlen_bytes),
                    avg_qlen_bytes=port.queue.time_avg_qlen(now),
                    tx_bytes=c.dequeued_bytes - b_tx,
                    tx_marked_bytes=c.dequeued_marked_bytes - b_m,
                    dropped_pkts=c.dropped_pkts - b_d,
                    capacity_bps=port.rate_bps if port.up else 0.0,
                    ecn=port.marker.config if port.marker else None,
                    n_queues=1)
        return out

    # -- control ----------------------------------------------------------------
    def set_ecn_port(self, switch_name: str, port_idx: int,
                     config: ECNConfig) -> None:
        """Configure one egress queue (multi-queue mode, paper §4.5.2)."""
        sw = self.topology.node(switch_name)
        if not isinstance(sw, SwitchNode):
            raise TypeError(f"{switch_name} is not a switch")
        sw.ports[port_idx].set_ecn(config)

    def set_ecn(self, switch_name: str, config: ECNConfig) -> None:
        sw = self.topology.node(switch_name)
        if not isinstance(sw, SwitchNode):
            raise TypeError(f"{switch_name} is not a switch")
        sw.set_ecn_all(config)
        get_registry().inc("netsim.ecn_set", sim="packet")

    def set_ecn_all(self, config: ECNConfig) -> None:
        for name in self.switch_names():
            self.set_ecn(name, config)

    # -- failures ---------------------------------------------------------------
    def fail_uplinks(self, fraction: float,
                     rng: Optional[np.random.Generator] = None) -> int:
        """Take down both directions of a fraction of the fabric's
        uplinks (leaf↔spine, or agg↔core on a fat-tree: the pod↔core
        links the sharded fluid fat-tree fails): of the links still up,
        ``max(1, round(fraction × links))`` fail, as on the fluid
        networks.  Every switch then withdraws the next hops that can no
        longer reach a destination, so ECMP picks among the paths still
        whole end to end (the fluid networks' choice)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rng = rng or self.rng
        links = self._uplinks
        up = [k for k, (a, b) in enumerate(links) if a.up and b.up]
        n = max(1, int(round(fraction * len(links))))
        for k in rng.choice(up, size=min(n, len(up)), replace=False):
            for port in links[k]:
                port.set_up(False)
        withdraw_dead_routes(self._switch_list)
        return min(n, len(up))

    def restore_uplinks(self) -> None:
        for port in self._fabric_ports:
            port.set_up(True)
        withdraw_dead_routes(self._switch_list)

    def set_fabric_capacity_factor(self, factor: float) -> None:
        """Uniformly scale fabric (switch↔switch) port rates; recomputed
        from the nominal rates, so ``factor=1.0`` restores them exactly."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("capacity factor must be in (0, 1]")
        self.fabric_capacity_factor = float(factor)
        for port, rate in zip(self._fabric_ports, self._fabric_nominal_bps):
            port.rate_bps = rate * factor

    def switch_names(self) -> List[str]:
        return [sw.name for sw in self.topology.switches()]

    # -- convenience -----------------------------------------------------------
    def host_names(self) -> List[str]:
        return [h.name for h in self.topology.hosts]

    def active_flow_count(self) -> int:
        return sum(1 for f in self.flows.values() if not f.done)

    def total_drops(self) -> int:
        return sum(port.queue.counters.dropped_pkts
                   for sw in self.topology.switches() for port in sw.ports)
