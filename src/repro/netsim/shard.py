"""Fluid simulation of a multi-pod fat-tree.

The monolithic :class:`~repro.netsim.fluid.FluidNetwork` tops out at one
leaf–spine pod; production-scale fabrics are fat-trees with hundreds of
switches.  :class:`ShardedFluidNetwork` steps that shape in one process
(docs/PERFORMANCE.md, "Why the fat-tree steps in one process") over
state whose **pod axis is an array axis**:

- the queue arrays are laid out in blocks — one contiguous block per
  pod (edge-down, edge-up, agg-up and agg-down queues), then the core
  plane — and each sub-step integrates only the **live** queues, those
  on an active flow's path or holding bytes, gathered into one
  :func:`~repro.netsim.fluid.integrate_queue_block` call: any other
  queue is empty and unfed, so integrating it would change no bit;
- the flow table is one ``(n_pods, cap)`` stack of ``_f_*`` columns,
  row ``p`` holding the flows **owned** by pod ``p`` (a flow belongs to
  its source edge's pod — :meth:`~repro.netsim.fattree.FatTreeConfig.
  owner_pod_of_flow`), with a high-water mark and a LIFO free list per
  pod.  The step is **one fabric-wide vectorised pass per phase** over
  the active ``(pod, slot)`` pairs — the phase functions of
  :mod:`repro.netsim.fluid` that the solo and batch networks step
  through too: NIC sharing + arrival reduction, queue integration,
  AIMD + finish detection — so per-Δt cost follows the fabric's
  *active* flows and the queues they touch, at one pass's worth of
  NumPy dispatch, whatever the pod count (measured:
  docs/PERFORMANCE.md, ``benchmarks/scale/fabric_cost.py``);
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

**Determinism contract** — ownership and the queue blocks are fixed by
the topology; per-pod reductions accumulate in hop-major slot order; a
pod that owns no flow contributes nothing, so the same flows on a
fabric with more (idle) pods give the same bits; the live-queue set is
recomputed from the arrays every sub-step and changes no bit either.
``tests/test_shard.py`` pins this with canonical fingerprint literals,
an independent plain-loop oracle and the idle-pods metamorphic test;
``tests/test_step_oracle.py`` steps every queue with plain loops.

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
from repro.netsim.fluid import (SwitchStatsMixin, _PendingFlows,
                                _record_finished, _register_flows,
                                account_queue_block, feedback_phase,
                                flow_phase, integrate_queue_block,
                                sample_latency)
from repro.netsim.routing import ecmp_hash_array
from repro.obs.metrics import get_registry

__all__ = ["ShardedFluidNetwork"]

#: per-queue state arrays (attribute names), all ``(n_queues,)``
_QUEUE_FIELDS = ("q_len", "q_cap", "q_cap_nominal", "kmin", "kmax", "pmax",
                 "_arrival", "_acc_tx", "_acc_marked", "_acc_qlen_area",
                 "_acc_drops", "_p_mark", "_srv_ratio", "q_switch",
                 "_q_owner")

#: per-flow columns of the stacked ``(n_pods, cap)`` table, held on the
#: network as ``_f_src`` ...: name, dtype, value of a slot never used.
#: ``f_fid`` is the id of the flow in the slot (ids span ``[0, 2**64)``).
_FLOW_FIELDS = (("f_src", np.int64, 0), ("f_dst", np.int64, 0),
                ("f_size", float, 0), ("f_remaining", float, 0),
                ("f_rate", float, 0), ("f_alpha", float, 0),
                ("f_active", bool, 0), ("f_core", np.int64, -1),
                ("f_path", np.int64, -1), ("f_fid", np.uint64, 0))


class ShardedFluidNetwork(SwitchStatsMixin):
    """Vectorized fluid simulation of a fat-tree, stepped in one process.

    Queue layout, per pod ``p`` (one contiguous block each), then core:

    - ``edge_down[e, h]`` — edge ``e`` to each local host,
    - ``edge_up[e, a]``   — edge ``e`` to agg ``a``,
    - ``agg_up[a, k]``    — agg ``a`` to its ``k``-th core,
    - ``agg_down[a, e]``  — agg ``a`` to edge ``e``,
    - ``core_down[c, p]`` — core ``c`` to pod ``p`` (core block).

    An intra-edge flow takes 1 queue, intra-pod 3, inter-pod 5.  Row
    ``p`` of the stacked flow table holds the flows pod ``p`` owns (see
    the module docstring for the ownership rule and boundary-aggregate
    association).
    """

    _MAX_HOPS = 5
    _SIM_LABEL = "fluid_shard"

    # ``shards=1``, ``close()`` and ``memory_report()``'s shape are what the
    # frozen benchmarks/perf harness uses; 1 is the only shard count.
    def __init__(self, config: Optional[FatTreeConfig] = None, *,
                 shards: int = 1, seed: Optional[int] = None) -> None:
        self.config = config or FatTreeConfig()
        cfg = self.config
        if shards != 1:
            raise ValueError("the fat-tree steps in one process: shards "
                             f"must be 1, got {shards}")
        self.rng = np.random.default_rng(seed)
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
        #: the pod whose block holds each queue; the core plane's get
        #: ``n_pods``, which owns no flows
        self._q_owner = np.arange(self.n_queues) // self._pod_block

        self.q_len = np.zeros(self.n_queues)
        self.q_cap = np.zeros(self.n_queues)
        self._arrival = np.zeros(self.n_queues)
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
        self.kmin = np.full(self.n_queues, float(cfg.default_ecn.kmin_bytes))
        self.kmax = np.full(self.n_queues, float(cfg.default_ecn.kmax_bytes))
        self.pmax = np.full(self.n_queues, float(cfg.default_ecn.pmax))
        self._ecn_by_switch: Dict[int, ECNConfig] = {
            s: cfg.default_ecn for s in range(self.n_switches)}
        #: per-(pod, core) uplink health — one bit covers the agg_up and
        #: core_down queue pair of the agg(p, c//cpa) <-> core(c) link.
        self.uplink_up = np.ones((n_p, n_c), dtype=bool)
        self.fabric_capacity_factor = 1.0

        # ---- flow table: one (n_pods, cap) stack, row p owned by pod p ----
        #: flow ownership follows the flow's source edge's pod
        #: (:meth:`FatTreeConfig.owner_pod_of_flow`); the core plane owns
        #: no flows
        self._alloc_flow_storage(cfg.initial_flow_capacity)
        #: per pod: slots ever used (high-water mark) and recycled slots
        self._n_flows: List[int] = [0] * n_p
        self._free: List[List[int]] = [[] for _ in range(n_p)]
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
        #: ``(owner pod, queue)`` rows merged across a pod boundary on
        #: the most recent step
        self._last_boundary_rows = 0

        # ---- interval stats accumulators ----------------------------------
        self._acc_tx = np.zeros(self.n_queues)
        self._acc_marked = np.zeros(self.n_queues)
        self._acc_qlen_area = np.zeros(self.n_queues)
        self._acc_time = 0.0
        self._acc_drops = np.zeros(self.n_queues)
        #: the most recent sub-step's RED mark probability and service
        #: ratio, by global queue id; only the live queues' are current
        self._p_mark = np.zeros(self.n_queues)
        self._srv_ratio = np.ones(self.n_queues)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """No-op (there is nothing to release but the network's own
        arrays), kept because the frozen benchmark harness calls it."""

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
        """(Re)allocate the stacked ``(n_pods, cap)`` flow columns,
        carrying the old slots over."""
        for name, dtype, fill in _FLOW_FIELDS:
            old = getattr(self, "_" + name, None)
            tail = (self._MAX_HOPS,) if name == "f_path" else ()
            new = np.full((self.config.n_pods, cap) + tail, fill, dtype=dtype)
            if old is not None:
                new[:, :old.shape[1]] = old
            setattr(self, "_" + name, new)

    def _active_slots(self) -> Tuple[np.ndarray, np.ndarray]:
        """The active ``(pod, slot)`` pairs, in that order."""
        return self._f_active[:, :max(self._n_flows)].nonzero()

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
        # always got: a recycled one first (O(1), keeping per-step vector
        # ops proportional to the concurrent flow count), else the next
        # above the high-water mark.
        pods = self.config.owner_pod_of_flow(pend.src[lo:hi]).tolist()
        n_flows, free = self._n_flows, self._free
        slots = []
        for p in pods:
            if free[p]:
                slots.append(free[p].pop())
            else:
                slots.append(n_flows[p])
                n_flows[p] += 1
        cap, need = self._f_active.shape[1], max(n_flows)
        if need > cap:
            # every pod's row doubles until the fullest pod fits
            while cap < need:
                cap *= 2
            self._alloc_flow_storage(cap)
        at = (np.array(pods), np.array(slots))
        self._f_fid[at] = pend.fid[lo:hi]
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
        """Canonical aggregate of the stacked flow table: every column
        (but the flow ids) concatenated in (owner pod, local slot) order
        up to each pod's high-water mark.  This is the flow half of
        every conformance fingerprint.
        """
        return {name: np.concatenate(
                    [rows[:n] for rows, n in zip(getattr(self, "_" + name),
                                                 self._n_flows)])
                for name, _, _ in _FLOW_FIELDS if name != "f_fid"}

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

    def _step(self, dt: float) -> None:
        """One Δt through the shared phase functions, over the active
        flows in (owner pod, slot) order."""
        cfg = self.config
        self.now += dt
        self._activate_due()
        self._acc_time += dt
        n = max(self._n_flows)
        if n == 0:
            self._acc_qlen_area += self.q_len * dt
            return
        at = pods, slots = self._f_active[:, :n].nonzero()
        path = self._f_path[at].T                   # (H, k), hop-major
        send = self._flow_phase(pods, slots, path)
        self._integrate_live(path, dt)
        qdelay, done = feedback_phase(
            cfg, dt, self._f_rate, self._f_alpha, self._f_remaining,
            self._f_active, at, self._f_rate[at], send, path, self._p_mark,
            self._srv_ratio, self.q_len, self.q_cap)
        if done.any():
            # finished flows retire in (pod, slot) order, each slot going
            # back to its own pod's free list
            fin_pods, fin_slots = pods[done], slots[done]
            for p, i in zip(fin_pods.tolist(), fin_slots.tolist()):
                self._free[p].append(i)
            _record_finished(
                map(self.flow_objs.__getitem__,
                    self._f_fid[fin_pods, fin_slots].tolist()),
                self.now + qdelay[done], self.finished_flows)
            qdelay = qdelay[~done]
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

    def _integrate_live(self, path: np.ndarray, dt: float) -> None:
        """Queue integration + interval accounting of the **live** queues
        only — every queue on an active flow's path (``path``, as the
        flow phase took it) and every queue whose buffer is not exactly
        empty (``!= 0.0``, so a NaN is never skipped) — recomputed from
        the arrays, gathered, stepped as one block and scattered back.

        Every queue left out holds no bytes and receives none, so its
        integration is an exact no-op — ``+0.0`` on non-negative
        accumulators, ``q_len`` stays ``0.0`` — and no path reads its
        ``p_mark`` / ``srv_ratio``; skipping it changes no bit.
        """
        live = self.q_len != 0.0
        live[path[path >= 0]] = True
        live = live.nonzero()[0]
        q_len = self.q_len[live]
        served_rate, new_qlen, drops, p_mark, srv_ratio = \
            integrate_queue_block(q_len, self.q_cap[live], self.kmin[live],
                                  self.kmax[live], self.pmax[live],
                                  self._arrival[live], dt,
                                  float(self.config.switch_buffer_bytes))
        acc = [a[live] for a in (self._acc_tx, self._acc_marked,
                                 self._acc_qlen_area, self._acc_drops)]
        account_queue_block(*acc, q_len, served_rate, new_qlen, drops,
                            p_mark, dt)
        self.q_len[live] = q_len
        (self._acc_tx[live], self._acc_marked[live],
         self._acc_qlen_area[live], self._acc_drops[live]) = acc
        self._p_mark[live] = p_mark
        self._srv_ratio[live] = srv_ratio

    # ------------------------------------------------------------ stats
    def _active_flow_columns(self) -> Tuple[List[int], np.ndarray,
                                            np.ndarray, np.ndarray,
                                            np.ndarray]:
        """Ids, bytes seen, queue paths and src/dst host ids of the active
        flows, copied out in (owner pod, local slot) order — the canonical
        order of every fingerprint."""
        at = self._active_slots()
        return (self._f_fid[at].tolist(),
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
                self._f_fid[at], src[cut], dst[cut])

    # ------------------------------------------------------------ capacity
    def bytes_in_flight(self) -> float:
        """Total buffered bytes across the fabric (conservation probe)."""
        return float(self.q_len.sum())

    def memory_report(self) -> Dict[str, Dict[str, int]]:
        """Bytes of the per-queue and per-flow arrays this network holds,
        attributed to ``pod{p}`` (its queue block and its row of the
        stacked flow table — every row has the capacity the fullest pod
        has needed so far) and ``core`` (the core plane's queues; it
        owns no flows)."""
        per_queue = sum(getattr(self, name).itemsize
                        for name in _QUEUE_FIELDS)
        per_pod_flows = sum(getattr(self, "_" + name)[0].nbytes
                            for name, _, _ in _FLOW_FIELDS)
        report = {f"pod{p}": {"queue_bytes": self._pod_block * per_queue,
                              "flow_bytes": per_pod_flows}
                  for p in range(self.config.n_pods)}
        report["core"] = {
            "queue_bytes": (self.n_queues - self._core0) * per_queue,
            "flow_bytes": 0}
        return report
