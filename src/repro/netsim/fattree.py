"""Multi-pod fat-tree fabric: shared shape config + packet-level builder.

The paper's testbed is a single leaf–spine pod; the ROADMAP north-star
is production scale — multi-pod fat-trees with hundreds of switches.
This module is the topology half of that step:

- :class:`FatTreeConfig` describes a 3-tier fabric (pods of edge and
  aggregation switches under a shared core plane) plus the fluid-CC
  constants, and is understood by both simulators;
- :class:`FatTreeTopology` instantiates it at packet level alongside
  :class:`repro.netsim.topology.LeafSpineTopology` (same duck-typed
  surface, so :class:`repro.netsim.network.PacketNetwork` drives either);
- the fat-tree fluid model (:mod:`repro.netsim.shard`) steps the same
  shape with the pod as an array axis.

Naming: hosts are global ``h{i}``; switches are ``pod{p}.edge{e}``,
``pod{p}.agg{a}`` (pod-local indices) and ``core{c}``.  Global switch
order is pod-major (edges then aggs per pod) with the core plane last —
:mod:`repro.netsim.shard` relies on this order for its queue layout.

Routing is the canonical 3-tier ECMP: an edge delivers local hosts
directly and spreads everything else over its aggregation uplinks; an
aggregation switch delivers same-pod hosts via their edge and spreads
remote pods over its core uplinks; core ``c`` reaches pod ``p`` through
that pod's aggregation switch ``c // core_per_agg``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.seeding import fallback_rng

from repro.netsim.ecn import ECNConfig, ECNMarker
from repro.netsim.ecn import SECN1 as _DEFAULT_ECN
from repro.netsim.engine import Simulator
from repro.netsim.host import HostNode
from repro.netsim.link import OutputPort
from repro.netsim.queueing import ByteQueue
from repro.netsim.switch import SwitchNode

__all__ = ["FatTreeConfig", "FatTreeTopology"]


@dataclass
class FatTreeConfig:
    """Fat-tree shape, link parameters and fluid-CC constants.

    Shared by the packet builder and the sharded fluid model, the same
    way :class:`~repro.netsim.fluid.FluidConfig` serves the leaf–spine.
    Defaults give a 4-pod, 16-switch, 32-host fabric; see
    :meth:`small` and :meth:`production_scale` for the test and
    capacity-headline shapes.
    """

    n_pods: int = 4
    edge_per_pod: int = 2
    agg_per_pod: int = 2
    #: core switches owned by each aggregation slot; the core plane has
    #: ``agg_per_pod * core_per_agg`` switches and core ``c`` attaches
    #: to aggregation switch ``c // core_per_agg`` of every pod.
    core_per_agg: int = 1
    hosts_per_edge: int = 4
    host_rate_bps: float = 25e9
    agg_rate_bps: float = 100e9      # edge <-> agg links
    core_rate_bps: float = 100e9     # agg <-> core links
    host_link_delay: float = 2e-6
    fabric_link_delay: float = 2e-6
    #: empty-network inter-pod RTT; ``None`` derives it from the link
    #: delays (2 host hops + 4 fabric hops each way), and an explicit
    #: value that disagrees with the shape raises — same contract as
    #: :class:`~repro.netsim.fluid.FluidConfig`.
    base_rtt: Optional[float] = None
    step_dt: float = 50e-6
    default_ecn: ECNConfig = field(default_factory=lambda: _DEFAULT_ECN)
    # DCQCN-like fluid constants (see FluidConfig for semantics)
    g: float = 0.06
    md_gain: float = 0.5
    ai_fraction: float = 0.01
    min_rate_fraction: float = 0.002
    start_rate_fraction: float = 1.0
    switch_buffer_bytes: int = 9_000_000
    host_buffer_bytes: int = 8_000_000
    latency_sample_cap: int = 100_000
    initial_flow_capacity: int = 1024
    int_enabled: bool = False

    def __post_init__(self) -> None:
        if min(self.n_pods, self.edge_per_pod, self.agg_per_pod,
               self.core_per_agg, self.hosts_per_edge) < 1:
            raise ValueError("topology dimensions must be >= 1")
        if self.step_dt <= 0:
            raise ValueError("step_dt must be positive")
        if self.initial_flow_capacity < 1:
            raise ValueError("initial_flow_capacity must be >= 1")
        if min(self.host_link_delay, self.fabric_link_delay) <= 0:
            raise ValueError("link delays must be positive")
        derived = self.derived_base_rtt()
        if self.base_rtt is None:
            self.base_rtt = derived
        elif abs(self.base_rtt - derived) > 1e-12:
            raise ValueError(
                f"base_rtt={self.base_rtt!r} is inconsistent with the "
                f"topology's link delays (derived {derived!r}); drop the "
                "explicit base_rtt or adjust host/fabric_link_delay")

    def derived_base_rtt(self) -> float:
        """Empty-network inter-pod host↔host RTT (propagation only).

        One way crosses two host links and four fabric links
        (edge→agg→core→agg→edge) — two more fabric hops than the
        leaf–spine, which is exactly why a hardcoded leaf–spine RTT
        cannot be reused here.
        """
        one_way = 2 * self.host_link_delay + 4 * self.fabric_link_delay
        return 2 * one_way

    # -- derived shape -------------------------------------------------------
    @property
    def n_core(self) -> int:
        return self.agg_per_pod * self.core_per_agg

    @property
    def n_edge(self) -> int:
        return self.n_pods * self.edge_per_pod

    @property
    def n_agg(self) -> int:
        return self.n_pods * self.agg_per_pod

    @property
    def n_switches(self) -> int:
        return self.n_edge + self.n_agg + self.n_core

    @property
    def hosts_per_pod(self) -> int:
        return self.edge_per_pod * self.hosts_per_edge

    @property
    def n_hosts(self) -> int:
        return self.n_pods * self.hosts_per_pod

    # -- host/switch addressing ----------------------------------------------
    def pod_of_host(self, host: int) -> int:
        return host // self.hosts_per_pod

    def edge_of_host(self, host: int) -> int:
        """Pod-local edge index of a (global) host index."""
        return (host % self.hosts_per_pod) // self.hosts_per_edge

    def owner_pod_of_flow(self, src_host: int) -> int:
        """Owning pod of a flow: its **source** edge's pod.

        The flow-table sharding rule (docs/PERFORMANCE.md): every flow
        lives in exactly one pod's table, NIC sharing needs only local
        flows (a host's flows are all in its own pod's table by
        construction), and a failure reroute may migrate a flow's *core*
        but never its owner pod — the source host does not move.
        """
        return self.pod_of_host(src_host)

    @classmethod
    def small(cls) -> "FatTreeConfig":
        """An 8-host, 10-switch fabric for quick tests."""
        return cls(n_pods=2, edge_per_pod=2, agg_per_pod=2, core_per_agg=1,
                   hosts_per_edge=2, host_rate_bps=10e9,
                   agg_rate_bps=40e9, core_rate_bps=40e9)

    @classmethod
    def production_scale(cls) -> "FatTreeConfig":
        """The capacity headline: 8 pods, 80 switches, 256 hosts.

        A multi-tier fabric the single-pod leaf–spine layout cannot
        express, small enough for tests: 768 queues in 8 pod blocks
        plus the core plane.
        """
        return cls(n_pods=8, edge_per_pod=4, agg_per_pod=4, core_per_agg=4,
                   hosts_per_edge=8)

    @classmethod
    def scale_xl(cls) -> "FatTreeConfig":
        """The 10k-host shape: 16 pods, 416 switches, 10240 hosts.

        The fabric behind the ``fabric_xl`` benchmark workload: 15360
        queues in 16 pod blocks plus the core plane, one ``(16, cap)``
        stacked flow table.  Per-Δt step cost follows the fabric-wide
        *active* flow count and the live queues those flows touch, at
        one vectorised pass's dispatch overhead, not the pod count
        (measured: docs/PERFORMANCE.md, "The pod axis is an array axis"
        and "Live queues"; ``benchmarks/scale/fabric_cost.py``).
        """
        return cls(n_pods=16, edge_per_pod=16, agg_per_pod=8,
                   core_per_agg=4, hosts_per_edge=40)


class FatTreeTopology:
    """Instantiated packet-level fat-tree: devices, ports and routes.

    Mirrors :class:`~repro.netsim.topology.LeafSpineTopology`'s surface
    (``hosts``, ``switches()``, ``node()``, ``fabric_ports``), so :class:`~repro.netsim.network.PacketNetwork`
    assembles either fabric unchanged.
    """

    def __init__(self, config: FatTreeConfig, sim: Simulator,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.config = config
        self.sim = sim
        self.rng = rng if rng is not None else fallback_rng(0)
        self.hosts: List[HostNode] = []
        #: [pod][e] / [pod][a] pod-local switch grids, plus the core plane
        self.edges: List[List[SwitchNode]] = []
        self.aggs: List[List[SwitchNode]] = []
        self.cores: List[SwitchNode] = []
        #: (switch_name, port_index) of every fabric port (edge↔agg and
        #: agg↔core), a link's two directions one after the other
        self.fabric_ports: List[Tuple[str, int]] = []
        #: the agg↔core pairs of ``fabric_ports``: the pod↔core links the
        #: sharded fluid fat-tree fails too, and so the ones
        #: ``PacketNetwork.fail_uplinks`` fails
        self.uplink_ports: List[Tuple[str, int]] = []
        self._by_name: Dict[str, object] = {}
        self._build()

    # -- construction ------------------------------------------------------
    def _mk_marker(self) -> ECNMarker:
        return ECNMarker(self.config.default_ecn,
                         rng=np.random.default_rng(self.rng.integers(2 ** 63)))

    def _mk_port(self, src, dst, rate_bps: float, delay: float) -> OutputPort:
        return OutputPort(self.sim, src, dst, rate_bps, delay,
                          queue=ByteQueue(self.config.switch_buffer_bytes),
                          marker=self._mk_marker(),
                          int_enabled=self.config.int_enabled)

    def _build(self) -> None:
        cfg = self.config
        for i in range(cfg.n_hosts):
            h = HostNode(f"h{i}", self.sim)
            self.hosts.append(h)
            self._by_name[h.name] = h
        for p in range(cfg.n_pods):
            self.edges.append([])
            self.aggs.append([])
            for e in range(cfg.edge_per_pod):
                sw = SwitchNode(f"pod{p}.edge{e}")
                self.edges[p].append(sw)
                self._by_name[sw.name] = sw
            for a in range(cfg.agg_per_pod):
                sw = SwitchNode(f"pod{p}.agg{a}")
                self.aggs[p].append(sw)
                self._by_name[sw.name] = sw
        for c in range(cfg.n_core):
            sw = SwitchNode(f"core{c}")
            self.cores.append(sw)
            self._by_name[sw.name] = sw

        # host <-> edge links
        for i, h in enumerate(self.hosts):
            edge = self.edges[cfg.pod_of_host(i)][cfg.edge_of_host(i)]
            up = OutputPort(self.sim, h, edge, cfg.host_rate_bps,
                            cfg.host_link_delay,
                            queue=ByteQueue(cfg.host_buffer_bytes))
            h.attach_nic(up)
            down = self._mk_port(edge, h, cfg.host_rate_bps,
                                 cfg.host_link_delay)
            idx = edge.add_port(down)
            edge.set_route(h.name, [idx])

        # edge <-> agg full bipartite mesh within each pod
        for p in range(cfg.n_pods):
            pod_lo = p * cfg.hosts_per_pod
            pod_hi = (p + 1) * cfg.hosts_per_pod
            for e, edge in enumerate(self.edges[p]):
                uplink_idx: List[int] = []
                for a, agg in enumerate(self.aggs[p]):
                    up = self._mk_port(edge, agg, cfg.agg_rate_bps,
                                       cfg.fabric_link_delay)
                    iu = edge.add_port(up)
                    uplink_idx.append(iu)
                    self.fabric_ports.append((edge.name, iu))
                    down = self._mk_port(agg, edge, cfg.agg_rate_bps,
                                         cfg.fabric_link_delay)
                    idn = agg.add_port(down)
                    self.fabric_ports.append((agg.name, idn))
                    # agg routes this edge's hosts out of `down`
                    for i in range(pod_lo + e * cfg.hosts_per_edge,
                                   pod_lo + (e + 1) * cfg.hosts_per_edge):
                        agg.set_route(f"h{i}", [idn])
                # edge ECMPs every non-local host over its agg uplinks
                for i in range(cfg.n_hosts):
                    local = pod_lo <= i < pod_hi and cfg.edge_of_host(i) == e
                    if not local:
                        edge.set_route(f"h{i}", uplink_idx)

        # agg <-> core: agg slot a owns cores [a*cpa, (a+1)*cpa)
        for p in range(cfg.n_pods):
            pod_lo = p * cfg.hosts_per_pod
            pod_hi = (p + 1) * cfg.hosts_per_pod
            for a, agg in enumerate(self.aggs[p]):
                core_idx: List[int] = []
                for k in range(cfg.core_per_agg):
                    core = self.cores[a * cfg.core_per_agg + k]
                    up = self._mk_port(agg, core, cfg.core_rate_bps,
                                       cfg.fabric_link_delay)
                    iu = agg.add_port(up)
                    core_idx.append(iu)
                    down = self._mk_port(core, agg, cfg.core_rate_bps,
                                         cfg.fabric_link_delay)
                    idn = core.add_port(down)
                    self.uplink_ports += [(agg.name, iu), (core.name, idn)]
                    # core reaches every host of pod p through this agg
                    for i in range(pod_lo, pod_hi):
                        core.set_route(f"h{i}", [idn])
                # agg ECMPs every remote-pod host over its core uplinks
                for i in range(cfg.n_hosts):
                    if not pod_lo <= i < pod_hi:
                        agg.set_route(f"h{i}", core_idx)
        self.fabric_ports += self.uplink_ports

    # -- lookup --------------------------------------------------------------
    def node(self, name: str):
        return self._by_name[name]

    def host(self, i: int) -> HostNode:
        return self.hosts[i]

    def switches(self) -> List[SwitchNode]:
        out: List[SwitchNode] = []
        for p in range(self.config.n_pods):
            out.extend(self.edges[p])
            out.extend(self.aggs[p])
        out.extend(self.cores)
        return out

    def edge_of(self, host_name: str) -> SwitchNode:
        """The edge switch a host attaches to; KeyError on unknown names."""
        try:
            i = int(host_name[1:])
        except ValueError:
            raise KeyError(f"unknown host {host_name!r}") from None
        if not (host_name.startswith("h") and 0 <= i < self.config.n_hosts):
            raise KeyError(f"unknown host {host_name!r}")
        return self.edges[self.config.pod_of_host(i)][self.config.edge_of_host(i)]
