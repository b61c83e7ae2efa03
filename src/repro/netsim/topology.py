"""Leaf–spine fabric construction and ECMP routing tables.

The paper's testbed is a 288-host leaf–spine: 12 leaves × 24 hosts at
25 Gbps with 6 spines at 100 Gbps.  The builder reproduces that shape at
any scale; the repo's default packet-level scale is smaller (see
DESIGN.md) while the fluid model runs the full size.

Routing is the canonical 2-tier scheme:

- a leaf delivers locally-attached destinations on the direct port and
  spreads everything else over all spine uplinks (ECMP),
- a spine forwards to the destination's leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.seeding import fallback_rng

from repro.netsim.ecn import ECNConfig
from repro.netsim.ecn import SECN1 as _DEFAULT_ECN
from repro.netsim.engine import Simulator
from repro.netsim.host import HostNode
from repro.netsim.link import OutputPort
from repro.netsim.queueing import ByteQueue
from repro.netsim.switch import SwitchNode
from repro.netsim.ecn import ECNMarker

__all__ = ["TopologyConfig", "LeafSpineTopology"]


@dataclass
class TopologyConfig:
    """Fabric shape and link parameters.

    The paper's full scale is ``n_spine=6, n_leaf=12, hosts_per_leaf=24,
    host_rate=25G, spine_rate=100G``; the packet-level default here is a
    proportionally-identical 2×4×4 fabric at 1/10 rates so packet runs
    finish quickly.  The *ratio* spine:host rate (4:1) and the
    oversubscription (hosts_per_leaf·host_rate : n_spine·spine_rate)
    match the paper.
    """

    n_spine: int = 2
    n_leaf: int = 4
    hosts_per_leaf: int = 4
    host_rate_bps: float = 2.5e9
    spine_rate_bps: float = 10e9
    host_link_delay: float = 1e-6
    fabric_link_delay: float = 1e-6
    switch_buffer_bytes: int = 2_000_000
    host_buffer_bytes: int = 8_000_000
    default_ecn: ECNConfig = field(default_factory=lambda: _DEFAULT_ECN)
    int_enabled: bool = False

    def __post_init__(self) -> None:
        if min(self.n_spine, self.n_leaf, self.hosts_per_leaf) < 1:
            raise ValueError("topology dimensions must be >= 1")

    @property
    def n_hosts(self) -> int:
        return self.n_leaf * self.hosts_per_leaf

    def base_rtt(self) -> float:
        """Empty-network host↔host RTT across the spine (propagation only)."""
        one_way = 2 * self.host_link_delay + 2 * self.fabric_link_delay
        return 2 * one_way

    @classmethod
    def paper_scale(cls) -> "TopologyConfig":
        """The full 288-host fabric of the paper's §5.2."""
        return cls(n_spine=6, n_leaf=12, hosts_per_leaf=24,
                   host_rate_bps=25e9, spine_rate_bps=100e9)


class LeafSpineTopology:
    """Instantiated fabric: devices, ports and routes."""

    def __init__(self, config: TopologyConfig, sim: Simulator,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.config = config
        self.sim = sim
        self.rng = rng if rng is not None else fallback_rng(0)
        self.hosts: List[HostNode] = []
        self.leaves: List[SwitchNode] = []
        self.spines: List[SwitchNode] = []
        #: (switch_name, port_index) of each leaf->spine / spine->leaf
        #: port, a link's two directions one after the other;
        #: ``PacketNetwork.fail_uplinks`` fails links by these pairs.
        self.fabric_ports: List[Tuple[str, int]] = []
        self.uplink_ports = self.fabric_ports
        self._by_name: Dict[str, object] = {}
        self._build()

    # -- construction ------------------------------------------------------
    def _mk_marker(self) -> ECNMarker:
        return ECNMarker(self.config.default_ecn,
                         rng=np.random.default_rng(self.rng.integers(2 ** 63)))

    def _build(self) -> None:
        cfg = self.config
        for i in range(cfg.n_hosts):
            h = HostNode(f"h{i}", self.sim)
            self.hosts.append(h)
            self._by_name[h.name] = h
        for j in range(cfg.n_leaf):
            sw = SwitchNode(f"leaf{j}")
            self.leaves.append(sw)
            self._by_name[sw.name] = sw
        for k in range(cfg.n_spine):
            sw = SwitchNode(f"spine{k}")
            self.spines.append(sw)
            self._by_name[sw.name] = sw

        # host <-> leaf links
        for i, h in enumerate(self.hosts):
            leaf = self.leaves[i // cfg.hosts_per_leaf]
            up = OutputPort(self.sim, h, leaf, cfg.host_rate_bps,
                            cfg.host_link_delay,
                            queue=ByteQueue(cfg.host_buffer_bytes))
            h.attach_nic(up)
            down = OutputPort(self.sim, leaf, h, cfg.host_rate_bps,
                              cfg.host_link_delay,
                              queue=ByteQueue(cfg.switch_buffer_bytes),
                              marker=self._mk_marker(),
                              int_enabled=cfg.int_enabled)
            idx = leaf.add_port(down)
            leaf.set_route(h.name, [idx])

        # leaf <-> spine full bipartite mesh
        for j, leaf in enumerate(self.leaves):
            uplink_idx: List[int] = []
            for k, spine in enumerate(self.spines):
                up = OutputPort(self.sim, leaf, spine, cfg.spine_rate_bps,
                                cfg.fabric_link_delay,
                                queue=ByteQueue(cfg.switch_buffer_bytes),
                                marker=self._mk_marker(),
                                int_enabled=cfg.int_enabled)
                iu = leaf.add_port(up)
                uplink_idx.append(iu)
                self.fabric_ports.append((leaf.name, iu))
                down = OutputPort(self.sim, spine, leaf, cfg.spine_rate_bps,
                                  cfg.fabric_link_delay,
                                  queue=ByteQueue(cfg.switch_buffer_bytes),
                                  marker=self._mk_marker(),
                                  int_enabled=cfg.int_enabled)
                idn = spine.add_port(down)
                self.fabric_ports.append((spine.name, idn))
                # spine routes every host under this leaf out of `down`
                for i in range(j * cfg.hosts_per_leaf, (j + 1) * cfg.hosts_per_leaf):
                    spine.set_route(f"h{i}", [idn])
            # leaf ECMPs all remote hosts over its uplinks
            for i in range(cfg.n_hosts):
                if i // cfg.hosts_per_leaf != j:
                    leaf.set_route(f"h{i}", uplink_idx)

    # -- lookup --------------------------------------------------------------
    def node(self, name: str):
        return self._by_name[name]

    def host(self, i: int) -> HostNode:
        return self.hosts[i]

    def switches(self) -> List[SwitchNode]:
        return [*self.leaves, *self.spines]

    def leaf_of(self, host_name: str) -> SwitchNode:
        # Unknown names raise KeyError (not a bare int() ValueError) so
        # serve/chaos callers can degrade per-node instead of crashing.
        try:
            i = int(host_name[1:])
        except ValueError:
            raise KeyError(f"unknown host {host_name!r}") from None
        if not (host_name.startswith("h") and 0 <= i < self.config.n_hosts):
            raise KeyError(f"unknown host {host_name!r}")
        return self.leaves[i // self.config.hosts_per_leaf]
