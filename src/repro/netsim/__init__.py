"""Discrete-event data-center network simulator (ns-3 stand-in).

Packet-level components
-----------------------
- :mod:`repro.netsim.engine` — event loop.
- :mod:`repro.netsim.packet` / :mod:`repro.netsim.flow` — data units.
- :mod:`repro.netsim.ecn` — RED/ECN marking (Kmin, Kmax, Pmax).
- :mod:`repro.netsim.queueing` — byte-based drop-tail queue with
  time-weighted statistics and per-flow observation for the NCM.
- :mod:`repro.netsim.link` / :mod:`repro.netsim.switch` /
  :mod:`repro.netsim.host` — devices.
- :mod:`repro.netsim.topology` — leaf–spine fabric with ECMP routing.
- :mod:`repro.netsim.fattree` — multi-pod fat-tree fabric (same packet
  surface; docs/TOPOLOGIES.md).
- :mod:`repro.netsim.routing` — the shared splitmix64 flow→path mix
  every ECMP router uses (lint rule PET007 bans builtin ``hash()``).
- :mod:`repro.netsim.transport` — DCQCN (default, RDMA-style), DCTCP and
  HPCC rate control.
- :mod:`repro.netsim.network` — assembled packet-level network facade
  implementing the simulator API consumed by :mod:`repro.gymenv`.
- :mod:`repro.netsim.failures` — link-failure injection (paper Fig. 7).
- :mod:`repro.netsim.pfc` — priority flow control.

The transports, failures and PFC are imported from their own modules
(:class:`PacketNetwork` loads the transports when it is built), so the
fluid runs never load them.

Fluid model
-----------
:mod:`repro.netsim.fluid` is a time-stepped rate/queue model exposing the
same per-switch statistics interface; it is orders of magnitude faster
and is what the RL training sweeps in the benchmark harness run on.
:mod:`repro.netsim.batchfluid` steps R independent fluid replicas as one
``(R, n, H)`` tensor program, bit-identical per replica to solo runs.
:mod:`repro.netsim.shard` steps a multi-pod fat-tree over per-pod
queue blocks plus one stacked ``(n_pods, cap)`` flow table whose row
``p`` holds the flows pod ``p`` owns, one vectorised pass per phase, in
one process.
"""

from repro.netsim.engine import Simulator, Event
from repro.netsim.packet import Packet
from repro.netsim.flow import Flow, MICE_ELEPHANT_THRESHOLD
from repro.netsim.ecn import ECNMarker, ECNConfig
from repro.netsim.queueing import ByteQueue
from repro.netsim.topology import LeafSpineTopology, TopologyConfig
from repro.netsim.fattree import FatTreeConfig, FatTreeTopology
from repro.netsim.network import PacketNetwork, QueueStats
from repro.netsim.fluid import FluidNetwork, FluidConfig
from repro.netsim.batchfluid import BatchFluidNetwork, BatchCompatError
from repro.netsim.shard import ShardedFluidNetwork

__all__ = [
    "Simulator", "Event", "Packet", "Flow", "MICE_ELEPHANT_THRESHOLD",
    "ECNMarker", "ECNConfig", "ByteQueue",
    "LeafSpineTopology", "TopologyConfig",
    "FatTreeConfig", "FatTreeTopology",
    "PacketNetwork", "QueueStats",
    "FluidNetwork", "FluidConfig",
    "BatchFluidNetwork", "BatchCompatError", "ShardedFluidNetwork",
]
