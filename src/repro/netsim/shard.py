"""Spatially-sharded fluid simulation of a multi-pod fat-tree.

The monolithic :class:`~repro.netsim.fluid.FluidNetwork` tops out at one
leaf–spine pod; production-scale fabrics (ROADMAP item 2) are fat-trees
with hundreds of switches.  :class:`ShardedFluidNetwork` steps that
shape over a state that is spatially decomposed in **both** halves of
the fluid model:

- the global queue state is laid out in **subdomain blocks** — one
  contiguous block per pod (edge-down, edge-up, agg-up and agg-down
  queues) plus one block for the core plane —
  :func:`~repro.netsim.fluid.integrate_queue_block` is elementwise per
  queue, so the blocks integrate in one in-process call or as
  independent Engine tasks with the same bits;
- the flow table is partitioned by **owner pod** (a flow belongs to its
  source edge's pod — :meth:`~repro.netsim.fattree.FatTreeConfig.
  owner_pod_of_flow`): one ``(n_pods, cap)`` stack of ``f_*`` arrays
  whose rows the per-pod :class:`FlowShard` objects hold as views.  The
  step is **one fabric-wide vectorised pass per phase** over the active
  ``(pod, slot)`` pairs — the phase functions of
  :mod:`repro.netsim.fluid` that the solo and batch networks step
  through too: NIC sharing + arrival reduction, queue integration,
  AIMD + finish detection — so per-Δt cost is proportional
  to the fabric's *active* flows at one pass's worth of NumPy dispatch,
  whatever the pod count (measured: docs/PERFORMANCE.md);
- registered flows wait in one fabric-wide start-time-ordered table;
  every flow due inside an ``advance`` window is routed in **one**
  vectorised call ahead of admission (:meth:`ShardedFluidNetwork.
  _route_batch`, also the reroute path), and a link-state change drops
  the routes not yet used;
- pods can feed one queue, so the arrival reduction is given the pods
  as owners and keeps the **boundary-aggregate** association:
  each pod's flows are first summed per ``(owner pod, queue)``, and
  those rows are added into the global arrival vector with the queue's
  own pod first and the boundary rows — core-plane and remote-pod
  queues — after it in fixed owner-pod order.

**Determinism contract** — ``shards=N`` is bit-identical to
``shards=1`` for every N and for the Engine-parallel path.  Both
partitions (queue subdomains *and* flow ownership) are fixed by the
topology, never by the shard count, which only groups subdomains into
Engine tasks; per-pod reductions accumulate in hop-major slot order;
queue integration is elementwise per queue; and every Engine merge
writes disjoint slices back in a fixed order.  ``tests/test_shard.py``
pins this with canonical fingerprint literals and an independent
plain-loop oracle.

On the Engine path the per-Δt exchange is **zero-copy**: queue state
lives in a preallocated :class:`~repro.parallel.engine.SharedArena`
(one named float64 slab), TaskSpecs carry only the arena handle plus a
``[lo, hi)`` span, and workers integrate task-id-ordered disjoint
slices in place — comms cost is O(boundary), not O(flows).  When
shared memory is unavailable the engine path falls back to the pickled
block payloads transparently (same bits either way).

The controller-facing surface (``advance`` / ``queue_stats`` /
``set_ecn`` / ``fail_uplinks``) matches the other two simulators, so
PET, ACC and the static baselines drive a fat-tree unmodified.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netsim.ecn import ECNConfig
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import (FlowTableMixin, SwitchStatsMixin,
                                _PendingFlows, _register_flows,
                                account_queue_block, feedback_phase,
                                flow_phase, integrate_queue_block,
                                sample_latency)
from repro.netsim.routing import ecmp_hash_array
from repro.obs.metrics import get_registry
from repro.parallel.engine import Engine, SharedArena, TaskSpec, attach_arena

__all__ = ["Subdomain", "FlowShard", "ShardedFluidNetwork"]

#: floating-point queue-state arrays held per queue — the 11 arena rows
#: (5 RED/state inputs + arrival + 5 integration outputs) plus
#: ``q_cap_nominal`` and the 4 interval accumulators — used for the
#: per-shard memory attribution in
#: :meth:`ShardedFluidNetwork.memory_report`.
_FLOAT_ARRAYS_PER_QUEUE = 16

#: row layout of the shared float64 arena (and of the in-process state
#: block standing in for it): inputs first, then the arrival vector,
#: then the five :func:`integrate_queue_block` outputs.  Workers and the
#: parent both index rows by this tuple — keep it in lockstep with
#: :func:`_integrate_arena_span`.
_ARENA_FIELDS = ("q_len", "q_cap", "kmin", "kmax", "pmax", "arrival",
                 "served", "new_qlen", "drops", "p_mark", "srv_ratio")

#: the per-flow arrays, stacked ``(n_pods, cap)`` on the network with
#: each :class:`FlowShard` holding its row as views.
_FLOW_FIELDS = ("f_src", "f_dst", "f_size", "f_remaining", "f_rate",
                "f_alpha", "f_active", "f_core", "f_path")


class Subdomain:
    """One contiguous block of the global queue arrays.

    A pod's queues (or the core plane's) — the unit of spatial
    decomposition.  Holds only layout metadata; the owning network
    holds the state, so re-grouping subdomains into a different shard
    count never moves data.
    """

    def __init__(self, name: str, start: int, stop: int) -> None:
        self.name = name
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __repr__(self) -> str:
        return f"Subdomain({self.name!r}, [{self.start}, {self.stop}))"


def _integrate_block_group(blocks: List[Dict[str, np.ndarray]],
                           dt: float) -> List[Tuple[np.ndarray, ...]]:
    """Engine task body (pickle fallback): integrate one shard group.

    Module-level and pure so it pickles to worker processes; blocks are
    self-contained state dicts, results are returned per block in block
    order (the caller merges groups in task-id order).
    """
    return [integrate_queue_block(b["q_len"], b["q_cap"], b["kmin"],
                                  b["kmax"], b["pmax"], b["arrival"],
                                  dt, b["buffer_bytes"])
            for b in blocks]


def _integrate_arena_span(arena_name: str, n_queues: int, lo: int, hi: int,
                          dt: float, buffer_bytes: float) -> int:
    """Engine task body (zero-copy path): integrate a queue span in place.

    The TaskSpec carries only this handle + ``[lo, hi)`` span — O(1)
    bytes.  Fork-started workers inherit the creator's mapping through
    the arena attachment cache, so no simulation state is pickled or
    copied across the process boundary; outputs land in the span's
    disjoint slices of the arena's output rows, where the parent reads
    them back.  Spans are per-task disjoint, so concurrent workers never
    write the same element.
    """
    state = attach_arena(arena_name, len(_ARENA_FIELDS) * n_queues)
    v = state.reshape(len(_ARENA_FIELDS), n_queues)
    served, new_qlen, drops, p_mark, srv = integrate_queue_block(
        v[0][lo:hi], v[1][lo:hi], v[2][lo:hi], v[3][lo:hi], v[4][lo:hi],
        v[5][lo:hi], dt, buffer_bytes)
    v[6][lo:hi] = served
    v[7][lo:hi] = new_qlen
    v[8][lo:hi] = drops
    v[9][lo:hi] = p_mark
    v[10][lo:hi] = srv
    return hi - lo


class FlowShard(FlowTableMixin):
    """One pod's flow table — a row of the fabric-wide stacked table.

    Owns the slot maps and free list of every flow whose
    source host lives in this pod (the ownership rule:
    :meth:`~repro.netsim.fattree.FatTreeConfig.owner_pod_of_flow`).  Its
    ``f_*`` arrays are row views into the owning network's ``(n_pods,
    cap)`` storage — the :class:`~repro.netsim.batchfluid.
    BatchFluidNetwork` idiom — so the network steps every pod in one
    vectorised pass while per-pod readers (stats, fingerprints, memory
    attribution) keep the solo flow-table surface.  Growth goes through
    the network (:meth:`ShardedFluidNetwork._grow_flows`), which regrows
    all rows together and re-points the views.  The core-plane
    subdomain owns no flows.
    """

    _MAX_HOPS = 5
    _FLOW_CHOICE_1D = ("f_core",)

    def __init__(self, net: "ShardedFluidNetwork") -> None:
        self.config = net.config
        self._init_flow_table(net.config.initial_flow_capacity)
        self._batch = net


class ShardedFluidNetwork(SwitchStatsMixin):
    """Vectorized fluid simulation of a fat-tree, one subdomain per pod.

    Queue layout, per pod ``p`` (one contiguous block each), then core:

    - ``edge_down[e, h]`` — edge ``e`` to each local host,
    - ``edge_up[e, a]``   — edge ``e`` to agg ``a``,
    - ``agg_up[a, k]``    — agg ``a`` to its ``k``-th core,
    - ``agg_down[a, e]``  — agg ``a`` to edge ``e``,
    - ``core_down[c, p]`` — core ``c`` to pod ``p`` (core block).

    An intra-edge flow takes 1 queue, intra-pod 3, inter-pod 5.  The
    flow table is partitioned into one :class:`FlowShard` per pod (see
    the module docstring for the ownership rule and boundary-aggregate
    exchange).
    """

    _MAX_HOPS = 5
    _SIM_LABEL = "fluid_shard"

    def __init__(self, config: Optional[FatTreeConfig] = None, *,
                 shards: int = 1, seed: Optional[int] = None,
                 engine: Optional[Engine] = None) -> None:
        self.config = config or FatTreeConfig()
        cfg = self.config
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if shards > cfg.n_pods + 1:
            raise ValueError(
                f"shards={shards} exceeds the {cfg.n_pods + 1} subdomains "
                f"({cfg.n_pods} pods + core plane) of this fabric")
        self.shards = int(shards)
        self.rng = np.random.default_rng(seed)
        self._engine = engine
        self.now = 0.0

        # ---- queue layout: one block per pod, then the core plane --------
        n_p, n_e, n_a = cfg.n_pods, cfg.edge_per_pod, cfg.agg_per_pod
        cpa, n_c = cfg.core_per_agg, cfg.n_core
        hpp = cfg.hosts_per_pod
        self._pb_edge_down = 0
        self._pb_edge_up = hpp
        self._pb_agg_up = hpp + n_e * n_a
        self._pb_agg_down = hpp + n_e * n_a + n_a * cpa
        self._pod_block = hpp + n_e * n_a + n_a * cpa + n_a * n_e
        self._core0 = n_p * self._pod_block
        self.n_queues = self._core0 + n_c * n_p
        self.subdomains: List[Subdomain] = [
            Subdomain(f"pod{p}", p * self._pod_block, (p + 1) * self._pod_block)
            for p in range(n_p)]
        self.subdomains.append(Subdomain("core", self._core0, self.n_queues))
        #: the pod whose block holds each queue; the core plane's get
        #: ``n_pods``, which owns no flows
        self._q_owner = np.arange(self.n_queues) // self._pod_block
        #: contiguous shard groups of subdomains — fixed partition, any
        #: grouping: bit-identity over ``shards`` holds by construction.
        self.shard_groups: List[List[Subdomain]] = [
            list(g) for g in np.array_split(np.array(self.subdomains,
                                                     dtype=object), shards)]

        # ---- queue state: 11 float64 rows, arena-backed on the Engine
        # path so workers integrate spans in place with zero pickling;
        # a plain in-process block otherwise (same layout, same bits).
        self._arena: Optional[SharedArena] = None
        state: Optional[np.ndarray] = None
        if engine is not None and self.shards > 1 and SharedArena.available():
            try:
                self._arena = SharedArena(
                    len(_ARENA_FIELDS) * self.n_queues)
                assert self._arena.array is not None
                state = self._arena.array.reshape(len(_ARENA_FIELDS),
                                                  self.n_queues)
            except OSError:   # e.g. /dev/shm exhausted: pickle fallback
                self._arena = None
        if state is None:
            state = np.zeros((len(_ARENA_FIELDS), self.n_queues))
        (self.q_len, self.q_cap, self.kmin, self.kmax, self.pmax,
         self._arrival, self._served, self._new_qlen, self._drops,
         self._p_mark, self._srv_ratio) = state

        self.q_switch = np.empty(self.n_queues, dtype=np.int64)
        sw_per_pod = n_e + n_a
        for p in range(n_p):
            b0 = p * self._pod_block
            for h in range(hpp):
                q = b0 + self._pb_edge_down + h
                self.q_cap[q] = cfg.host_rate_bps / 8.0
                self.q_switch[q] = p * sw_per_pod + h // cfg.hosts_per_edge
            for e in range(n_e):
                for a in range(n_a):
                    q = b0 + self._pb_edge_up + e * n_a + a
                    self.q_cap[q] = cfg.agg_rate_bps / 8.0
                    self.q_switch[q] = p * sw_per_pod + e
            for a in range(n_a):
                for k in range(cpa):
                    q = b0 + self._pb_agg_up + a * cpa + k
                    self.q_cap[q] = cfg.core_rate_bps / 8.0
                    self.q_switch[q] = p * sw_per_pod + n_e + a
                for e in range(n_e):
                    q = b0 + self._pb_agg_down + a * n_e + e
                    self.q_cap[q] = cfg.agg_rate_bps / 8.0
                    self.q_switch[q] = p * sw_per_pod + n_e + a
        for c in range(n_c):
            for p in range(n_p):
                q = self._core0 + c * n_p + p
                self.q_cap[q] = cfg.core_rate_bps / 8.0
                self.q_switch[q] = n_p * sw_per_pod + c
        self.q_cap_nominal = self.q_cap.copy()
        self.n_switches = cfg.n_switches
        self.kmin.fill(float(cfg.default_ecn.kmin_bytes))
        self.kmax.fill(float(cfg.default_ecn.kmax_bytes))
        self.pmax.fill(float(cfg.default_ecn.pmax))
        self._ecn_by_switch: Dict[int, ECNConfig] = {
            s: cfg.default_ecn for s in range(self.n_switches)}
        #: per-(pod, core) uplink health — one bit covers the agg_up and
        #: core_down queue pair of the agg(p, c//cpa) <-> core(c) link.
        self.uplink_up = np.ones((n_p, n_c), dtype=bool)
        self.fabric_capacity_factor = 1.0

        # ---- flow table: one (n_pods, cap) stack, one FlowShard per row ----
        #: flow ownership follows the flow's source edge's pod
        #: (:meth:`FatTreeConfig.owner_pod_of_flow`); the core subdomain
        #: owns no flows.  The partition is topology-determined, so it —
        #: like the queue blocks — is identical for every shard count.
        self.flow_shards: List[FlowShard] = [FlowShard(self)
                                             for _ in range(n_p)]
        self._alloc_flow_storage(cfg.initial_flow_capacity)
        self.flow_objs: Dict[int, Flow] = {}
        #: one fabric-wide start-time-ordered table of the flows that
        #: have not started yet
        self._pending = _PendingFlows()
        #: routes computed ahead of admission, one batch per
        #: :meth:`advance` window: ``(first pending row, path matrix,
        #: core vector)``; dropped when link state or the pending table's
        #: row numbering changes.
        self._routed: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        self._route_horizon = -np.inf
        self._refresh_live_cores()
        self.finished_flows: List[Flow] = []
        self.latencies: List[Tuple[float, float]] = []
        #: boundary rows merged on the most recent step — the size of
        #: the per-Δt inter-shard exchange (O(boundary), not O(flows)).
        self._last_boundary_rows = 0

        # ---- interval stats accumulators ----------------------------------
        self._acc_tx = np.zeros(self.n_queues)
        self._acc_marked = np.zeros(self.n_queues)
        self._acc_qlen_area = np.zeros(self.n_queues)
        self._acc_time = 0.0
        self._acc_drops = np.zeros(self.n_queues)

        reg = get_registry()
        if reg:
            for i, sub in enumerate(self.subdomains):
                reg.set_gauge("netsim.shard_queue_bytes",
                              float(len(sub) * 8 * _FLOAT_ARRAYS_PER_QUEUE),
                              sim=self._SIM_LABEL, subdomain=sub.name)
                flow_bytes = (self.flow_shards[i].flow_table_bytes()
                              if i < len(self.flow_shards) else 0)
                reg.set_gauge("netsim.shard_flow_bytes", float(flow_bytes),
                              sim=self._SIM_LABEL, subdomain=sub.name)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release the shared-memory arena, if any (idempotent).

        The queue state survives: every view detaches into a private
        copy first, so a closed network keeps stepping in-process with
        identical results — only the zero-copy Engine path is gone.
        """
        if self._arena is None:
            return
        (self.q_len, self.q_cap, self.kmin, self.kmax, self.pmax,
         self._arrival, self._served, self._new_qlen, self._drops,
         self._p_mark, self._srv_ratio) = [
            a.copy() for a in (self.q_len, self.q_cap, self.kmin, self.kmax,
                               self.pmax, self._arrival, self._served,
                               self._new_qlen, self._drops, self._p_mark,
                               self._srv_ratio)]
        arena, self._arena = self._arena, None
        arena.close()

    # ------------------------------------------------------------ topology
    def switch_names(self) -> List[str]:
        cfg = self.config
        out: List[str] = []
        for p in range(cfg.n_pods):
            out.extend(f"pod{p}.edge{e}" for e in range(cfg.edge_per_pod))
            out.extend(f"pod{p}.agg{a}" for a in range(cfg.agg_per_pod))
        out.extend(f"core{c}" for c in range(cfg.n_core))
        return out

    def host_names(self) -> List[str]:
        return [f"h{i}" for i in range(self.config.n_hosts)]

    def _switch_id(self, name: str) -> int:
        cfg = self.config
        sw_per_pod = cfg.edge_per_pod + cfg.agg_per_pod
        try:
            if name.startswith("core"):
                c = int(name[4:])
                if 0 <= c < cfg.n_core:
                    return cfg.n_pods * sw_per_pod + c
            elif name.startswith("pod") and "." in name:
                pod_part, sw_part = name.split(".", 1)
                p = int(pod_part[3:])
                if 0 <= p < cfg.n_pods:
                    if sw_part.startswith("edge"):
                        e = int(sw_part[4:])
                        if 0 <= e < cfg.edge_per_pod:
                            return p * sw_per_pod + e
                    elif sw_part.startswith("agg"):
                        a = int(sw_part[3:])
                        if 0 <= a < cfg.agg_per_pod:
                            return p * sw_per_pod + cfg.edge_per_pod + a
        except ValueError:
            pass
        raise KeyError(f"unknown switch {name!r}")

    # -- queue ids (of ints, or elementwise of int arrays) --------------------
    def _q_edge_down(self, pod: int, host_local: int) -> int:
        return pod * self._pod_block + self._pb_edge_down + host_local

    def _q_edge_up(self, pod: int, edge: int, agg: int) -> int:
        return (pod * self._pod_block + self._pb_edge_up
                + edge * self.config.agg_per_pod + agg)

    def _q_agg_up(self, pod: int, core: int) -> int:
        # agg a = core // cpa owns the uplink; its k-th core port
        return pod * self._pod_block + self._pb_agg_up + core

    def _q_agg_down(self, pod: int, agg: int, edge: int) -> int:
        return (pod * self._pod_block + self._pb_agg_down
                + agg * self.config.edge_per_pod + edge)

    def _q_core_down(self, core: int, pod: int) -> int:
        return self._core0 + core * self.config.n_pods + pod

    def _refresh_live_cores(self) -> None:
        """Rebuild the live-core candidates of every (src pod, dst pod):
        ``_live_cores[ps, pd, :_n_live[ps, pd]]`` are the cores whose
        uplink is up at both pods, ascending.  A partitioned pod pair
        falls back to every core (its flows keep their old path)."""
        up = self.uplink_up
        both = up[:, None, :] & up[None, :, :]
        both[~both.any(axis=2)] = True
        self._n_live = both.sum(axis=2)
        self._live_cores = np.argsort(~both, axis=2, kind="stable")

    def _route_batch(self, fids: np.ndarray, src: np.ndarray,
                     dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Queue paths (``(k, 5)``, ``-1``-padded) and cores (``-1`` when
        the flow stays inside its pod) of ``k`` flows.

        The one routing function: admission routes through it ahead of
        time, a link-state change re-routes through it.  Routing needs
        the *global* picture — queue-id layout and uplink health — so it
        lives on the network; the flow arrays live on the owner pod's
        row.  A reroute rewrites ``f_path`` / ``f_core`` in place and
        never migrates the flow between pods (the source host, hence the
        owner pod, is immutable).
        """
        cfg = self.config
        ps, hs = np.divmod(src.astype(np.int64), cfg.hosts_per_pod)
        pd, hd = np.divmod(dst.astype(np.int64), cfg.hosts_per_pod)
        es, ed = hs // cfg.hosts_per_edge, hd // cfg.hosts_per_edge
        path = np.full((len(fids), self._MAX_HOPS), -1, dtype=np.int64)
        core = np.full(len(fids), -1, dtype=np.int64)
        down = self._q_edge_down(pd, hd)
        inter = ps != pd
        intra = ~inter & (es != ed)
        local = ~inter & ~intra
        path[local, 0] = down[local]
        # intra-pod: pick an aggregation switch (pod-internal links have
        # no failure bit, so every agg is live)
        i = intra.nonzero()[0]
        a = ecmp_hash_array(fids[i], cfg.agg_per_pod)
        path[i, 0] = self._q_edge_up(ps[i], es[i], a)
        path[i, 1] = self._q_agg_down(pd[i], a, ed[i])
        path[i, 2] = down[i]
        # inter-pod: pick a core live on both ends; the core fixes the
        # aggregation switch (a = c // core_per_agg) in each pod
        i = inter.nonzero()[0]
        c = self._live_cores[ps[i], pd[i], ecmp_hash_array(
            fids[i], self._n_live[ps[i], pd[i]])]
        a = c // cfg.core_per_agg
        path[i, 0] = self._q_edge_up(ps[i], es[i], a)
        path[i, 1] = self._q_agg_up(ps[i], c)
        path[i, 2] = self._q_core_down(c, pd[i])
        path[i, 3] = self._q_agg_down(pd[i], a, ed[i])
        path[i, 4] = down[i]
        core[i] = c
        return path, core

    # ------------------------------------------------------------ flow table
    def _alloc_flow_storage(self, cap: int) -> None:
        """(Re)allocate the stacked ``(n_pods, cap)`` flow arrays, carry
        the old slots over and re-point every pod's row views."""
        n_p = self.config.n_pods
        for name in _FLOW_FIELDS:
            old = getattr(self, "_" + name, None)
            tail = (self._MAX_HOPS,) if name == "f_path" else ()
            fill = -1 if name in ("f_path", "f_core") else 0
            new = np.full((n_p, cap) + tail, fill,
                          dtype=getattr(self.flow_shards[0], name).dtype)
            if old is not None:
                new[:, :old.shape[1]] = old
            setattr(self, "_" + name, new)
            for p, sh in enumerate(self.flow_shards):
                setattr(sh, name, new[p])
        for sh in self.flow_shards:
            sh._cap_flows = cap

    def _grow_flows(self) -> None:
        """Double every pod's capacity (called from
        :meth:`FlowTableMixin._grow` when any one pod's row is full)."""
        self._alloc_flow_storage(self._f_active.shape[1] * 2)

    def _active_slots(self) -> Tuple[np.ndarray, np.ndarray]:
        """The active ``(pod, slot)`` pairs, in that order."""
        n = max(sh._n_flows for sh in self.flow_shards)
        return self._f_active[:, :n].nonzero()

    def _fids_at(self, pods: np.ndarray, slots: np.ndarray) -> List[int]:
        """Flow ids of the occupied ``(pod, slot)`` pairs."""
        maps = [sh._idx_to_fid for sh in self.flow_shards]
        return [maps[p][i] for p, i in zip(pods.tolist(), slots.tolist())]

    def _activate_due(self) -> None:
        """Admit every pending flow whose start time has come, routes
        taken from the batch computed ahead for this ``advance`` window."""
        pend = self._pending
        lo, hi = pend.pop_due(self.now)
        if lo == hi:
            return
        if self._routed is None or hi > self._routed[0] + len(self._routed[2]):
            # route everything due by the end of the window in one call:
            # its cost is almost all fixed, whatever the batch size
            ahead = max(hi, int(pend.start.searchsorted(self._route_horizon,
                                                        "right")))
            self._routed = (lo, *self._route_batch(
                pend.fid[lo:ahead], pend.src[lo:ahead], pend.dst[lo:ahead]))
        r0, paths, cores = self._routed
        # Slots in table order (start time, then registration).  A pod's
        # free list and high-water mark see only that pod's flows, in the
        # same order as a pod-by-pod walk, so every flow gets the slot it
        # always got.
        pods = self.config.owner_pod_of_flow(pend.src[lo:hi]).tolist()
        shards_ = self.flow_shards
        slots = []
        for p, fid in zip(pods, pend.fid[lo:hi].tolist()):
            sh = shards_[p]
            idx = sh._free_slot()
            sh._idx_to_fid[idx] = fid
            slots.append(idx)
        # index arrays only now: _free_slot may have regrown the storage
        at = (np.array(pods), np.array(slots))
        self._f_src[at] = pend.src[lo:hi]
        self._f_dst[at] = pend.dst[lo:hi]
        self._f_size[at] = self._f_remaining[at] = pend.size[lo:hi]
        self._f_rate[at] = (self.config.start_rate_fraction
                            * self.config.host_rate_bps / 8.0)
        self._f_alpha[at] = 1.0
        self._f_active[at] = True
        self._f_path[at] = paths[lo - r0:hi - r0]
        self._f_core[at] = cores[lo - r0:hi - r0]

    # ------------------------------------------------------------ flow intake
    def start_flow(self, flow: Flow) -> None:
        """Register a flow; it activates, in its owner pod's table, when
        ``now`` reaches its start time."""
        self.start_flows([flow])

    def start_flows(self, flows: Sequence[Flow]) -> None:
        """Register a list of flows, all or none: a duplicate flow id or
        an unknown source or destination host anywhere in the list
        raises ``ValueError`` and registers nothing."""
        _register_flows(flows, self.flow_objs, self._pending,
                        self.config.n_hosts)
        self._routed = None     # the merge renumbers the pending rows

    def active_flow_count(self) -> int:
        return int(self._f_active.sum()) + len(self._pending)

    @property
    def flows(self) -> Dict[int, Flow]:
        return self.flow_objs

    def flow_table_state(self) -> Dict[str, np.ndarray]:
        """Canonical aggregate of the per-pod flow tables.

        Concatenated in (owner pod, local slot) order — identical across
        shard counts because the ownership partition is
        topology-determined.  This is the flow half of every conformance
        fingerprint; per-shard state is on ``flow_shards`` directly.
        """
        shards_ = self.flow_shards
        out: Dict[str, np.ndarray] = {
            name: np.concatenate([getattr(sh, name)[:sh._n_flows]
                                  for sh in shards_])
            for name in ("f_src", "f_dst", "f_size", "f_remaining",
                         "f_rate", "f_alpha", "f_active", "f_core")}
        out["f_path"] = np.concatenate([sh.f_path[:sh._n_flows]
                                        for sh in shards_])
        return out

    # ------------------------------------------------------------ dynamics
    def advance(self, dt: float) -> None:
        """Advance virtual time by ``dt`` (an integer number of steps)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        steps = max(1, int(round(dt / self.config.step_dt)))
        step_dt = self.config.step_dt
        self._route_horizon = self.now + steps * step_dt
        for _ in range(steps):
            self._step(step_dt)
        reg = get_registry()
        if reg:
            reg.inc("netsim.advance_calls", sim=self._SIM_LABEL)
            reg.inc("netsim.steps", steps, sim=self._SIM_LABEL)
            reg.inc("netsim.virtual_s", dt, sim=self._SIM_LABEL)

    def _group_payload(self, group: Sequence[Subdomain],
                       arrival: np.ndarray) -> List[Dict[str, np.ndarray]]:
        buffer_bytes = float(self.config.switch_buffer_bytes)
        return [{"q_len": self.q_len[s.start:s.stop],
                 "q_cap": self.q_cap[s.start:s.stop],
                 "kmin": self.kmin[s.start:s.stop],
                 "kmax": self.kmax[s.start:s.stop],
                 "pmax": self.pmax[s.start:s.stop],
                 "arrival": arrival[s.start:s.stop],
                 "buffer_bytes": buffer_bytes}
                for s in group]

    def _step_subdomains(self, arrival: np.ndarray, dt: float) -> Tuple[
            np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Queue integration over the merged arrival vector.

        Elementwise per queue, so how the queues are split can never
        change a bit.  Three transports, same bits: in-process
        (``engine=None`` or one group) integrates the whole arrays in
        one call; on the Engine every shard group integrates its own
        span, either in place in the shared-memory arena (nothing is
        pickled) or from pickled block payloads whose results land in
        disjoint slices of the output rows in task-id order.
        """
        groups = self.shard_groups
        buffer_bytes = float(self.config.switch_buffer_bytes)
        if self._engine is None or len(groups) == 1:
            return integrate_queue_block(self.q_len, self.q_cap, self.kmin,
                                         self.kmax, self.pmax, arrival, dt,
                                         buffer_bytes)
        outs = (self._served, self._new_qlen, self._drops, self._p_mark,
                self._srv_ratio)
        if self._arena is not None:
            # Zero-copy: groups are contiguous, so each task is one
            # [lo, hi) span of the arena; workers fill the output rows.
            specs = [TaskSpec(task_id=t, fn=_integrate_arena_span,
                              args=(self._arena.name, self.n_queues,
                                    g[0].start, g[-1].stop, dt,
                                    buffer_bytes))
                     for t, g in enumerate(groups)]
            self._engine.run(specs).values()   # raises on task failure
        else:
            specs = [TaskSpec(task_id=t, fn=_integrate_block_group,
                              args=(self._group_payload(g, arrival), dt))
                     for t, g in enumerate(groups)]
            results = self._engine.run(specs).values()
            for group, group_res in zip(groups, results):
                for sub, res in zip(group, group_res):
                    for dst, src in zip(outs, res):
                        dst[sub.start:sub.stop] = src
        return outs

    def _step(self, dt: float) -> None:
        """One Δt through the shared phase functions, over the active
        flows in (owner pod, slot) order; only the Engine transports
        split the queue integration."""
        cfg = self.config
        self.now += dt
        self._activate_due()
        self._acc_time += dt
        n = max(sh._n_flows for sh in self.flow_shards)
        if n == 0:
            self._acc_qlen_area += self.q_len * dt
            return
        at = pods, slots = self._f_active[:, :n].nonzero()
        path = self._f_path[at].T                   # (H, k), hop-major
        send = self._flow_phase(pods, slots, path)
        served_rate, new_qlen, drops, p_mark, srv_ratio = \
            self._step_subdomains(self._arrival, dt)
        account_queue_block(self._acc_tx, self._acc_marked,
                            self._acc_qlen_area, self._acc_drops, self.q_len,
                            served_rate, new_qlen, drops, p_mark, dt)
        qdelay, done = feedback_phase(
            cfg, dt, self._f_rate, self._f_alpha, self._f_remaining,
            self._f_active, at, self._f_rate[at], send, path, p_mark,
            srv_ratio, self.q_len, self.q_cap)
        if done.any():
            # finished flows retire in (pod, slot) order
            FlowShard._finish_flows(
                map(self.flow_shards.__getitem__, pods[done].tolist()),
                slots[done].tolist(), self.now + qdelay[done],
                self.flow_objs, self.finished_flows)
            qdelay = qdelay[~done]
        # one draw over the (pod, slot)-ordered survivors — the same RNG
        # consumption for every shard count
        sample_latency(self, qdelay)

    def _flow_phase(self, pods: np.ndarray, slots: np.ndarray,
                    path: np.ndarray) -> np.ndarray:
        """NIC sharing + arrival reduction (:func:`~repro.netsim.fluid.
        flow_phase` with the pods as owners, so the boundary-aggregate
        association holds); returns each flow's send rate and leaves the
        merged per-queue arrival in ``self._arrival``."""
        cfg = self.config
        send, self._arrival[:], self._last_boundary_rows = flow_phase(
            self._f_src[pods, slots], self._f_rate[pods, slots], path,
            cfg.host_rate_bps / 8.0, cfg.n_hosts, self.n_queues,
            owners=(pods, self._q_owner))
        return send

    # ------------------------------------------------------------ stats
    def _active_flow_columns(self) -> Tuple[List[int], np.ndarray,
                                            np.ndarray, np.ndarray,
                                            np.ndarray]:
        """Ids, bytes seen, queue paths and src/dst host ids of the active
        flows, copied out in (owner pod, local slot) order — the canonical
        order every fingerprint and shard count agrees on."""
        at = self._active_slots()
        return (self._fids_at(*at),
                self._f_size[at] - self._f_remaining[at], self._f_path[at],
                self._f_src[at], self._f_dst[at])

    # ------------------------------------------------------------ failures
    def _apply_link_state(self) -> None:
        cfg = self.config
        factor = self.fabric_capacity_factor
        for p in range(cfg.n_pods):
            b0 = p * self._pod_block
            # intra-pod fabric (edge<->agg) has no per-link failure bit;
            # it scales uniformly with the chaos degradation factor
            lo, hi = b0 + self._pb_edge_up, b0 + self._pb_agg_up
            self.q_cap[lo:hi] = self.q_cap_nominal[lo:hi] * factor
            lo, hi = b0 + self._pb_agg_down, b0 + self._pod_block
            self.q_cap[lo:hi] = self.q_cap_nominal[lo:hi] * factor
            for c in range(cfg.n_core):
                link = factor if self.uplink_up[p, c] else 1e-6
                qu = self._q_agg_up(p, c)
                qd = self._q_core_down(c, p)
                self.q_cap[qu] = self.q_cap_nominal[qu] * link
                self.q_cap[qd] = self.q_cap_nominal[qd] * link
        self._refresh_live_cores()
        self._routed = None          # routes made ahead of admission
        # Reroute the flows whose core is unreachable on either end.
        at = self._active_slots()
        c = self._f_core[at]
        src, dst = self._f_src[at], self._f_dst[at]
        cut = (c >= 0) & ~(self.uplink_up[cfg.pod_of_host(src), c]
                           & self.uplink_up[cfg.pod_of_host(dst), c])
        if cut.any():
            at = at[0][cut], at[1][cut]
            self._f_path[at], self._f_core[at] = self._route_batch(
                np.array(self._fids_at(*at), dtype=np.uint64),
                src[cut], dst[cut])

    # ------------------------------------------------------------ capacity
    def bytes_in_flight(self) -> float:
        """Total buffered bytes across every subdomain (conservation probe)."""
        return float(self.q_len.sum())

    def memory_report(self) -> Dict[str, Dict[str, int]]:
        """Resident queue- and flow-state bytes attributed per subdomain.

        The capacity story of sharding: ``queue_bytes`` is what one
        shard group's worker needs for the queue phase and scales with
        the largest subdomain; ``flow_bytes`` is the owner pod's row of
        the stacked flow table (the core plane owns none) — every row
        has the capacity the fullest pod has needed so far.
        Mirrors — and refreshes — the ``netsim.shard_queue_bytes`` and
        ``netsim.shard_flow_bytes`` gauges.
        """
        report: Dict[str, Dict[str, int]] = {}
        for i, sub in enumerate(self.subdomains):
            flow_bytes = (self.flow_shards[i].flow_table_bytes()
                          if i < len(self.flow_shards) else 0)
            report[sub.name] = {
                "queue_bytes": len(sub) * 8 * _FLOAT_ARRAYS_PER_QUEUE,
                "flow_bytes": flow_bytes,
            }
        reg = get_registry()
        if reg:
            for name, entry in report.items():
                reg.set_gauge("netsim.shard_flow_bytes",
                              float(entry["flow_bytes"]),
                              sim=self._SIM_LABEL, subdomain=name)
        return report
