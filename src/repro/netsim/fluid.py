"""Time-stepped fluid-model DCN simulator.

Packet-level simulation of a 288-host fabric for seconds of virtual time
is far too slow in Python for RL training sweeps, so — as a documented
substitution for the paper's ns-3 testbed (DESIGN.md §2) — this module
models the same leaf–spine fabric at *rate* granularity:

- every flow is a fluid with a sending rate controlled by a DCQCN-style
  AIMD reacting to RED/ECN marking,
- every switch egress port is a queue integrating
  ``dq/dt = arrival - capacity``,
- the RED curve on the *instantaneous* queue length produces the mark
  fraction that (a) feeds back to senders and (b) is reported as
  txRate^(m) in the switch statistics.

The per-switch statistics interface (``advance`` / ``queue_stats`` /
``set_ecn``) matches :class:`repro.netsim.network.PacketNetwork`, so PET,
ACC and the static baselines run unmodified on either simulator.  The
test suite cross-validates the two models' queue dynamics.

One Δt is three phases, each a function over the active flows'
k-vectors and the flat queue arrays: :func:`flow_phase`,
:func:`integrate_queue_block` (+ :func:`account_queue_block`) and
:func:`feedback_phase`.  They are the one production formulation of the
step: the solo, batch and fat-tree networks gather their flows into them
by slot, ``(replica, slot)`` and ``(pod, slot)``, and own storage,
routing, admission and per-owner bookkeeping (docs/PERFORMANCE.md, "One
fluid step kernel"); ``tests/test_step_oracle.py`` holds the plain-loop
oracle they are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.netsim.ecn import ECNConfig
from repro.netsim.ecn import SECN1 as _DEFAULT_ECN
from repro.netsim.flow import Flow
from repro.netsim.network import QueueStats
from repro.netsim.queueing import FlowObservation
from repro.netsim.routing import ecmp_hash
from repro.obs.metrics import get_registry

__all__ = ["FluidConfig", "FluidNetwork", "FlowTableMixin",
           "SwitchStatsMixin", "flow_phase", "integrate_queue_block",
           "account_queue_block", "feedback_phase"]


@dataclass
class FluidConfig:
    """Fabric shape (paper scale by default) and fluid-CC constants."""

    n_spine: int = 6
    n_leaf: int = 12
    hosts_per_leaf: int = 24
    host_rate_bps: float = 25e9
    spine_rate_bps: float = 100e9
    #: per-hop propagation delays; the empty-network RTT is derived from
    #: them (2 host hops + 2 fabric hops each way across the spine),
    #: mirroring :meth:`repro.netsim.topology.TopologyConfig.base_rtt`.
    host_link_delay: float = 2e-6
    fabric_link_delay: float = 2e-6
    #: empty-network host↔host RTT.  ``None`` (the default) derives it
    #: from the link delays; passing a value that disagrees with the
    #: topology shape raises — the DCTCP-style rate updates and the
    #: Fig. 8 latency floor both key off it, so a stale hardcoded RTT
    #: silently skews every downstream figure.
    base_rtt: Optional[float] = None
    step_dt: float = 50e-6
    default_ecn: ECNConfig = field(default_factory=lambda: _DEFAULT_ECN)
    # DCQCN-like fluid constants
    g: float = 0.06              # alpha EWMA gain per step
    md_gain: float = 0.5         # rate cut = rc * alpha/2 * md_gain * f
    ai_fraction: float = 0.01    # additive increase per step, of line rate
    min_rate_fraction: float = 0.002
    start_rate_fraction: float = 1.0
    switch_buffer_bytes: int = 9_000_000
    latency_sample_cap: int = 100_000
    #: initial flow-slot capacity (grown by doubling on demand).  The
    #: capacity never affects results — ``_grow`` preserves contents —
    #: so tests shrink it to exercise mid-run reallocation cheaply.
    initial_flow_capacity: int = 1024

    def __post_init__(self) -> None:
        if min(self.n_spine, self.n_leaf, self.hosts_per_leaf) < 1:
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
        """Empty-network host↔host RTT across the spine (propagation only).

        One way crosses two host links (src NIC, dst downlink) and two
        fabric links (leaf→spine, spine→leaf) — the same formula as
        :meth:`repro.netsim.topology.TopologyConfig.base_rtt`.
        """
        one_way = 2 * self.host_link_delay + 2 * self.fabric_link_delay
        return 2 * one_way

    @property
    def n_hosts(self) -> int:
        return self.n_leaf * self.hosts_per_leaf

    @classmethod
    def small(cls) -> "FluidConfig":
        """A 32-host fabric for quick tests."""
        return cls(n_spine=2, n_leaf=4, hosts_per_leaf=8,
                   host_rate_bps=10e9, spine_rate_bps=40e9)


def flow_phase(src: np.ndarray, rate: np.ndarray, path: np.ndarray,
               line: float, n_hosts: int, n_queues: int,
               owners: Optional[Tuple[np.ndarray, np.ndarray]] = None
               ) -> Tuple[np.ndarray, np.ndarray, int]:
    """NIC sharing + per-queue arrival reduction over the ``k`` active flows.

    ``src`` and ``rate`` are ``(k,)``; ``path`` is the hop-major ``(H, k)``
    matrix of queue ids, ``-1`` where a path is shorter than ``H``.  Hosts
    and queues are whatever index space the caller gathered them into:
    a network's own, or replica-offset ids (``r*n_hosts + h``,
    ``r*Q + q``) when several networks step as one.  Returns each flow's
    send rate, the arrival rate of every queue, and the number of
    boundary rows merged (0 without ``owners``).

    Flows are summed into a queue in hop-major flow order — one
    ``bincount``, which adds in appearance order.  Where owners can share
    a queue (fat-tree pods feeding core and remote-pod queues), pass
    ``owners = (owner of each flow, owner of each queue)``: each owner's
    flows are then summed first, per ``(owner, queue)``, and the partial
    sums are merged with the queue's own owner first and the boundary
    rows after it in owner order — the association of a per-owner
    exchange, whatever the number of owners stepped together.
    """
    # cap the sum of a host's flow rates at line rate
    per_src = np.bincount(src, weights=rate, minlength=n_hosts)
    over = per_src > line
    send = rate
    if over.any():
        scale_src = np.ones(n_hosts)
        scale_src[over] = line / per_src[over]
        send = rate * scale_src[src]
    ok = path >= 0
    weights = send[ok.nonzero()[1]]             # hop-major, like path[ok]
    if owners is None:
        return send, np.bincount(path[ok], weights=weights,
                                 minlength=n_queues), 0
    flow_owner, queue_owner = owners
    rows, inv = np.unique((flow_owner * n_queues + path)[ok],
                          return_inverse=True)
    agg = np.bincount(inv, weights=weights, minlength=rows.size)
    owner, q = np.divmod(rows, n_queues)
    boundary = owner != queue_owner[q]
    order = np.concatenate((np.flatnonzero(~boundary),
                            np.flatnonzero(boundary)))
    return send, np.bincount(q[order], weights=agg[order],
                             minlength=n_queues), int(boundary.sum())


def integrate_queue_block(q_len: np.ndarray, q_cap: np.ndarray,
                          kmin: np.ndarray, kmax: np.ndarray,
                          pmax: np.ndarray, arrival: np.ndarray,
                          dt: float, buffer_bytes: float) -> Tuple[
                              np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray, np.ndarray]:
    """One Δt of queue integration + RED marking for a block of queues.

    Returns ``(served_rate, new_qlen, drops, p_mark, srv_ratio)``.
    Every operation is elementwise per queue, so which other queues —
    another replica's, another pod's — share the call never changes an
    element.  Clamps are ``maximum``/``minimum`` pairs: ``np.clip`` gives
    the same bits at two to three times the dispatch cost, and dispatch
    is what a step on a small fabric is made of.
    """
    served_rate = np.minimum(arrival + q_len / dt, q_cap)
    new_qlen = np.maximum(q_len + (arrival - q_cap) * dt, 0.0)
    drops = np.maximum(new_qlen - buffer_bytes, 0.0)
    new_qlen = np.minimum(new_qlen, buffer_bytes)
    # RED mark probability on instantaneous occupancy
    span = np.maximum(kmax - kmin, 1.0)
    p_mark = np.minimum(np.maximum((new_qlen - kmin) / span, 0.0), 1.0) * pmax
    p_mark = np.where(new_qlen >= kmax, 1.0, p_mark)
    srv_ratio = q_cap / np.maximum(arrival, q_cap)   # <=1 where overloaded
    return served_rate, new_qlen, drops, p_mark, srv_ratio


def account_queue_block(acc_tx: np.ndarray, acc_marked: np.ndarray,
                        acc_qlen_area: np.ndarray, acc_drops: np.ndarray,
                        q_len: np.ndarray, served_rate: np.ndarray,
                        new_qlen: np.ndarray, drops: np.ndarray,
                        p_mark: np.ndarray, dt: float) -> None:
    """Add one integrated Δt to the interval accumulators and commit the
    new queue lengths — in place: ``q_len`` may be a replica's row of
    batch storage."""
    tx = served_rate * dt
    acc_tx += tx
    acc_marked += tx * p_mark
    acc_qlen_area += 0.5 * (q_len + new_qlen) * dt
    acc_drops += drops
    np.copyto(q_len, new_qlen)


def feedback_phase(cfg: Any, dt: float, f_rate: np.ndarray,
                   f_alpha: np.ndarray, f_remaining: np.ndarray,
                   f_active: np.ndarray, at: Any, rate: np.ndarray,
                   send: np.ndarray, path: np.ndarray, p_mark: np.ndarray,
                   srv_ratio: np.ndarray, q_len: np.ndarray,
                   q_cap: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-hop feedback, DCQCN-like AIMD and progress of the ``k`` active
    flows; returns their queueing delay and which of them finished.

    ``at`` indexes the flows' slots in the ``f_*`` storage — a slot
    vector for one table, an ``(owner, slot)`` pair for stacked ones;
    ``rate``, ``send`` and ``path`` are what :func:`flow_phase` took and
    returned.  Rate, alpha and bytes remaining are updated in place, and
    a finished flow's slot is deactivated with nothing left to send.
    """
    # Queue state along each path, read back after integration.  A padded
    # hop (-1) reads the last queue and is replaced by the identity
    # (x1.0, min 1.0, +0.0), so every flow sees its own hops in order.
    ok = path >= 0
    hop_no_mark = np.where(ok, 1.0 - p_mark[path], 1.0)
    hop_srv = np.where(ok, srv_ratio[path], 1.0)
    hop_delay = np.where(ok, q_len[path] / q_cap[path], 0.0)
    no_mark, bottleneck, qdelay = hop_no_mark[0], hop_srv[0], hop_delay[0]
    for hop in range(1, len(path)):
        no_mark = no_mark * hop_no_mark[hop]
        bottleneck = np.minimum(bottleneck, hop_srv[hop])
        qdelay = qdelay + hop_delay[hop]
    mark_frac = 1.0 - no_mark

    line = cfg.host_rate_bps / 8.0
    a = (1.0 - cfg.g) * f_alpha[at] + cfg.g * mark_frac
    f_alpha[at] = a
    cut = 1.0 - (a * 0.5 * cfg.md_gain * mark_frac)
    new_rate = np.where(mark_frac > 1e-3, rate * cut,
                        rate + cfg.ai_fraction * line)
    f_rate[at] = np.minimum(
        np.maximum(new_rate, cfg.min_rate_fraction * line), line)

    remaining = f_remaining[at] - send * bottleneck * dt
    done = remaining <= 0.0
    if done.any():
        remaining[done] = 0.0
        f_active[at] = ~done
    f_remaining[at] = remaining
    return qdelay, done


def sample_latency(net: Any, qdelay: np.ndarray) -> None:
    """Fig. 8 latency sample: one draw of ``net.rng`` over the queueing
    delays of the flows still active after this step, in table order."""
    cfg = net.config
    if qdelay.size and len(net.latencies) < cfg.latency_sample_cap:
        net.latencies.append(
            (net.now, cfg.base_rtt / 2.0
             + qdelay[int(net.rng.integers(qdelay.size))]))


class _PendingFlows:
    """Registered flows that have not started yet: start-time-ordered
    columns (ties in registration order) behind a cursor, 32 bytes a flow.

    Chunks registered since the last pop are merged in on the next one,
    so registering flow by flow stays linear.  Rows ``[lo, len)`` are
    pending; a merge renumbers them from 0.
    """

    def __init__(self) -> None:
        self.start = np.empty(0)                     # seconds
        self.fid = np.empty(0, dtype=np.uint64)
        self.src = np.empty(0, dtype=np.int32)       # host indices
        self.dst = np.empty(0, dtype=np.int32)
        self.size = np.empty(0)                      # bytes
        self.lo = 0
        self._next_start = math.inf
        self._staged: List[Tuple[np.ndarray, ...]] = []
        self._n_staged = 0

    def __len__(self) -> int:
        return len(self.start) - self.lo + self._n_staged

    def add(self, *columns: np.ndarray) -> None:
        """Register one parsed chunk: start, fid, src, dst, size."""
        self._staged.append(columns)
        self._n_staged += len(columns[0])

    def _columns(self) -> Tuple[np.ndarray, ...]:
        return self.start, self.fid, self.src, self.dst, self.size

    def _merge_staged(self) -> None:
        chunks = self._staged
        if self.lo < len(self.start):
            chunks.insert(0, tuple(c[self.lo:] for c in self._columns()))
        cols = (chunks[0] if len(chunks) == 1
                else [np.concatenate(c) for c in zip(*chunks)])
        start = cols[0]
        if (start[1:] < start[:-1]).any():      # a generator's list is sorted
            order = start.argsort(kind="stable")
            cols = [c[order] for c in cols]
        self.start, self.fid, self.src, self.dst, self.size = cols
        self.lo = 0
        self._next_start = float(self.start[0]) if len(start) else math.inf
        self._staged = []
        self._n_staged = 0

    def pop_due(self, now: float) -> Tuple[int, int]:
        """Consume the flows whose start time has come; returns their row
        range ``[lo, hi)``, in start-time then registration order."""
        if self._staged:
            self._merge_staged()
        lo = self.lo
        if self._next_start > now:
            return lo, lo
        hi = int(self.start.searchsorted(now, "right"))
        self.lo = hi
        self._next_start = (float(self.start[hi]) if hi < len(self.start)
                            else math.inf)
        return lo, hi


def _record_finished(flows: Iterable[Flow], finish_times: np.ndarray,
                     finished_flows: List[Flow]) -> None:
    """Stamp and record the flows that finished this step.  The residual
    queueing delay is part of ``finish_times``, which stay
    ``np.float64`` — fingerprints print them with ``repr``."""
    for flow, t in zip(flows, finish_times):
        flow.finish_time = t
        flow.bytes_sent = flow.bytes_acked = flow.size_bytes
        finished_flows.append(flow)


def _register_flows(flows: Sequence[Flow], flow_objs: Dict[int, Flow],
                    pending: _PendingFlows, n_hosts: int) -> None:
    """Validate a whole list of flows, then register it: the flows go
    into ``flow_objs`` and, as columns, into ``pending``.

    Raises ``ValueError`` — before anything is registered — on a flow id
    that is already registered, repeated in the list or outside
    ``[0, 2**64)``, and on a source or destination that is not a host of
    this fabric.  Each distinct host name is parsed once.
    """
    ids = [f.flow_id for f in flows]
    try:
        fid_col = np.array(ids, dtype=np.uint64)
    except (OverflowError, TypeError):
        raise ValueError("flow ids must be integers in [0, 2**64)") from None
    by_id = np.sort(fid_col)
    if ((by_id[1:] == by_id[:-1]).any()
            or not flow_objs.keys().isdisjoint(ids)):
        seen: set = set()
        for fid in ids:
            if fid in flow_objs or fid in seen:
                raise ValueError(f"duplicate flow id {fid}")
            seen.add(fid)
    src = [f.src for f in flows]
    dst = [f.dst for f in flows]
    index: Dict[Any, int] = {}
    for name in set(src).union(dst):
        try:
            i = FlowTableMixin._host_index(name)
        except KeyError:
            i = -1
        if not 0 <= i < n_hosts:
            raise ValueError(f"unknown host {name}")
        index[name] = i
    pending.add(
        np.array([f.start_time for f in flows], dtype=np.float64), fid_col,
        np.array([index[h] for h in src], dtype=np.int32),
        np.array([index[h] for h in dst], dtype=np.int32),
        np.array([f.size_bytes for f in flows], dtype=np.float64))
    flow_objs.update(zip(ids, flows))


class FlowTableMixin:
    """Grow-on-demand flow table of a leaf–spine fluid network, solo or
    batch replica (the fat-tree stacks its pods' tables as one array:
    :mod:`repro.netsim.shard`).

    Hosts provide the ``f_*`` arrays, ``config`` (``n_hosts``,
    ``host_rate_bps``, ``start_rate_fraction``), ``now`` and a
    ``_route(idx)`` that fills ``f_path[idx]``; the mixin owns slot
    allocation, pending-flow activation and reallocation.  Attribute
    names are a stable contract — :class:`~repro.netsim.batchfluid.
    BatchFluidNetwork` re-points them at batch storage row views.
    """

    #: extra per-flow int64 arrays (grown filled with -1) beyond the
    #: base table — the leaf–spine network records the chosen spine.
    _FLOW_CHOICE_1D: Tuple[str, ...] = ("f_spine",)

    def _init_flow_table(self, cap: int) -> None:
        """Allocate an empty flow table of ``cap`` slots and its slot maps.

        One table per network; :class:`~repro.netsim.batchfluid.
        BatchFluidNetwork` re-points its replicas' arrays at rows of one
        stacked table.  Flow intake — registration, the pending store,
        completion records — is :meth:`_init_flow_intake`.
        """
        if cap < 1:
            raise ValueError("flow capacity must be >= 1")
        self._cap_flows = cap
        self._n_flows = 0
        self.f_src = np.zeros(cap, dtype=np.int64)
        self.f_dst = np.zeros(cap, dtype=np.int64)
        self.f_size = np.zeros(cap)
        self.f_remaining = np.zeros(cap)
        self.f_rate = np.zeros(cap)                      # bytes/s
        self.f_alpha = np.zeros(cap)
        self.f_active = np.zeros(cap, dtype=bool)
        self.f_path = np.full((cap, self._MAX_HOPS), -1, dtype=np.int64)
        for name in self._FLOW_CHOICE_1D:
            setattr(self, name, np.full(cap, -1, dtype=np.int64))
        self._idx_to_fid: Dict[int, int] = {}   # occupied slots only
        self._free_list: List[int] = []   # recycled flow slots
        #: the batch whose stacked storage this table's arrays are row
        #: views into, if any
        self._batch = None

    def _init_flow_intake(self) -> None:
        self.flow_objs: Dict[int, Flow] = {}
        self._pending = _PendingFlows()
        self.finished_flows: List[Flow] = []
        self.latencies: List[Tuple[float, float]] = []

    def flow_table_bytes(self) -> int:
        """Resident bytes of the ``f_*`` arrays (capacity, not usage)."""
        total = self.f_path.nbytes
        for name in ("f_src", "f_dst", "f_size", "f_remaining", "f_rate",
                     "f_alpha", "f_active") + self._FLOW_CHOICE_1D:
            total += getattr(self, name).nbytes
        return int(total)

    def _grow(self) -> None:
        if self._batch is not None:
            # A batched replica's flow arrays are row views into the
            # batch's (R, cap) storage: growing them locally would break
            # that aliasing (this replica would silently detach while
            # the batch kernel keeps stepping the stale storage).  The
            # batch grows all replicas together and re-points the views.
            self._batch._grow_flows()
            return
        new_cap = self._cap_flows * 2
        for name in ("f_src", "f_dst", "f_size", "f_remaining", "f_rate",
                     "f_alpha", "f_active") + self._FLOW_CHOICE_1D:
            arr = getattr(self, name)
            grown = np.zeros(new_cap, dtype=arr.dtype)
            grown[:self._cap_flows] = arr
            if name in self._FLOW_CHOICE_1D:
                grown[self._cap_flows:] = -1
            setattr(self, name, grown)
        grown_path = np.full((new_cap, self._MAX_HOPS), -1, dtype=np.int64)
        grown_path[:self._cap_flows] = self.f_path
        self.f_path = grown_path
        self._cap_flows = new_cap

    def start_flow(self, flow: Flow) -> None:
        """Register a flow; it activates when ``now`` reaches its start."""
        self.start_flows([flow])

    def start_flows(self, flows: Sequence[Flow]) -> None:
        """Register a list of flows, all or none: a duplicate flow id or
        an unknown source or destination host anywhere in the list
        raises ``ValueError`` and registers nothing."""
        _register_flows(flows, self.flow_objs, self._pending,
                        self.config.n_hosts)

    @staticmethod
    def _host_index(name) -> int:
        if isinstance(name, str):
            try:
                return int(name[1:])
            except ValueError:
                raise KeyError(f"unknown host {name!r}") from None
        return int(name)

    def _activate_due(self) -> None:
        pend = self._pending
        lo, hi = pend.pop_due(self.now)
        if lo == hi:
            return
        # ~2 flows a sub-step on the leaf-spine fabrics: scalar stores and
        # the per-flow _route beat any batch call's fixed cost here.
        for fid, src, dst, size in zip(pend.fid[lo:hi].tolist(),
                                       pend.src[lo:hi].tolist(),
                                       pend.dst[lo:hi].tolist(),
                                       pend.size[lo:hi].tolist()):
            idx = self._free_slot()
            self._idx_to_fid[idx] = fid
            self.f_src[idx] = src
            self.f_dst[idx] = dst
            self.f_size[idx] = size
            self.f_remaining[idx] = size
            self.f_rate[idx] = (self.config.start_rate_fraction
                                * self.config.host_rate_bps / 8.0)
            self.f_alpha[idx] = 1.0
            self.f_active[idx] = True
            self._route(idx)

    def _free_slot(self) -> int:
        # O(1): recycle a finished flow's slot, else extend the
        # high-water mark (keeping per-step vector ops proportional to
        # the concurrent — not cumulative — flow count).
        if self._free_list:
            return self._free_list.pop()
        if self._n_flows >= self._cap_flows:
            self._grow()
        idx = self._n_flows
        self._n_flows += 1
        return idx

    def _finish_flows(self, slots: List[int],
                      finish_times: np.ndarray) -> None:
        """Retire the flows in ``slots`` (already inactive): record each
        :class:`Flow` and recycle its slot."""
        fids = [self._idx_to_fid.pop(i) for i in slots]
        self._free_list.extend(slots)
        _record_finished(map(self.flow_objs.__getitem__, fids), finish_times,
                         self.finished_flows)

    # ------------------------------------------------------------ convenience
    def active_flow_count(self) -> int:
        return int(self.f_active[:self._n_flows].sum()) + len(self._pending)

    @property
    def flows(self) -> Dict[int, Flow]:
        return self.flow_objs


class _ObsSnapshot:
    """Collection-time copy of what the per-flow observations are made
    of — the active flows' ids, bytes seen, endpoints and queue paths, in
    flow-table order.  Array consumers read :meth:`rows`; the per-switch
    ``{fid: FlowObservation}`` dicts are expanded once, when the first
    consumer reads one.  Holding copies makes both immune to whatever
    happens to the flow slots afterwards.
    """

    def __init__(self, fids: List[int], seen: np.ndarray, paths: np.ndarray,
                 src: np.ndarray, dst: np.ndarray, now: float,
                 flow_objs: Dict[int, Flow], q_switch: np.ndarray) -> None:
        self._fids = fids
        self._seen = seen
        self._paths = paths
        self._src = src
        self._dst = dst
        self._now = now
        self._flow_objs = flow_objs
        self._q_switch = q_switch
        self._rows: Optional[Tuple[np.ndarray, ...]] = None
        self._by_switch: Optional[Dict[int, Dict[int, FlowObservation]]] = None

    def rows(self) -> Tuple[np.ndarray, ...]:
        """The observations of every switch as five int64 columns
        ``(switch index, flow id, src host id, dst host id, bytes seen)``
        — one row per entry of :meth:`by_switch`, each switch's rows in
        its dict's insertion order, every row last seen at collection time.
        Built on first call and shared by every reader of the collection."""
        if self._rows is None:
            on_path = self._paths >= 0
            sw = self._q_switch[self._paths]
            keep = on_path.copy()
            # a flow that meets a switch twice is one entry, at its first hop
            for hop in range(1, sw.shape[1]):
                for earlier in range(hop):
                    keep[:, hop] &= ~(on_path[:, earlier]
                                      & (sw[:, earlier] == sw[:, hop]))
            flow, at_hop = keep.nonzero()
            seen = np.where(self._seen > 1.0, self._seen, 1.0).astype(np.int64)
            self._rows = (sw[flow, at_hop],
                          np.array(self._fids, dtype=np.int64)[flow],
                          self._src[flow], self._dst[flow], seen[flow])
        return self._rows

    def by_switch(self) -> Dict[int, Dict[int, FlowObservation]]:
        """The observations grouped by every switch on the flow's path,
        flows in slot order and hops in path order — the insertion order
        ``tests/test_switch_telemetry.py`` checks against a plain loop."""
        if self._by_switch is None:
            out: Dict[int, Dict[int, FlowObservation]] = {}
            qsw = self._q_switch.tolist()
            flow_objs = self._flow_objs
            now = self._now
            for fid, seen, path in zip(self._fids, self._seen.tolist(),
                                       self._paths.tolist()):
                flow = flow_objs[fid]
                obs = FlowObservation(fid, flow.src, flow.dst,
                                      int(seen if seen > 1.0 else 1.0), now)
                for q in path:
                    if q >= 0:
                        out.setdefault(qsw[q], {})[fid] = obs
            self._by_switch = out
        return self._by_switch

    def of_switch(self, s: int) -> Dict[int, FlowObservation]:
        return self.by_switch().get(s, {})


class SwitchStatsMixin:
    """Per-switch statistics + ECN control over a flat queue array.

    Generic over topology: hosts provide ``q_switch`` (queue → switch
    id), ``switch_names()``, ``_switch_id(name)``, the ``_acc_*``
    interval accumulators, the RED arrays, the flow table and — for the
    failure controls — ``uplink_up``, ``rng`` and ``_apply_link_state()``
    (capacities and reroutes are the topology's business).  Both the
    monolithic leaf–spine network and the sharded fat-tree expose the
    exact :class:`~repro.netsim.network.PacketNetwork` stats interface
    through this mixin, so PET/ACC controllers run unmodified on any of
    the three simulators.
    """

    #: the ``sim`` label of this substrate's ``netsim.*`` counters —
    #: the one its ``advance`` reports.
    _SIM_LABEL = "fluid"

    # lazily built caches of the static queue layout (``q_switch``)
    _names_cache: Optional[List[str]] = None
    _sw_q_idx: Optional[List[np.ndarray]] = None
    _sw_classes: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
    #: bytes dropped in the intervals already collected
    _dropped_bytes = 0.0

    def total_drops(self) -> int:
        """Packets dropped since the start of the run — cumulative across
        :meth:`queue_stats` collections, in the records' ``dropped_pkts``
        unit (1000-byte packets)."""
        return int((self._dropped_bytes + self._acc_drops.sum()) // 1000)

    def _switch_index_cache(self) -> List[np.ndarray]:
        """Per-switch queue-index arrays (``q_switch`` is static)."""
        if self._sw_q_idx is None:
            self._sw_q_idx = [np.flatnonzero(self.q_switch == s)
                              for s in range(self.n_switches)]
        return self._sw_q_idx

    def _switch_classes(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The switches grouped by queue count: per class, the switch ids
        and the ``(n_switches_in_class, n_queues)`` matrix of their queue
        indices — what lets one gather + row reduction serve a whole
        class (``q_switch`` is static)."""
        if self._sw_classes is None:
            sw_idx = self._switch_index_cache()
            by_count: Dict[int, List[int]] = {}
            for s, idx in enumerate(sw_idx):
                by_count.setdefault(len(idx), []).append(s)
            self._sw_classes = [
                (np.array(ss), np.stack([sw_idx[s] for s in ss]))
                for ss in by_count.values()]
        return self._sw_classes

    def _switch_names_cached(self) -> List[str]:
        if self._names_cache is None:
            self._names_cache = self.switch_names()
        return self._names_cache

    def queue_stats(self) -> Dict[str, QueueStats]:
        """Per-switch interval statistics; resets the interval."""
        get_registry().inc("netsim.stats_collections", sim=self._SIM_LABEL)
        interval = max(self._acc_time, 1e-12)
        names = self._switch_names_cached()
        out = self._grouped_stats(names, interval)
        self._acc_tx[:] = 0.0
        self._acc_marked[:] = 0.0
        self._acc_qlen_area[:] = 0.0
        self._dropped_bytes += float(self._acc_drops.sum())
        self._acc_drops[:] = 0.0
        self._acc_time = 0.0
        return out

    def _grouped_stats(self, names: List[str],
                       interval: float) -> Dict[str, QueueStats]:
        """The records of :meth:`queue_stats` from one gather + row
        reduction per switch class and field.

        A row of the C-contiguous gather is reduced by the same pairwise
        routine, over the same elements in the same order, as a
        per-switch ``a[q_switch == s].sum()``, so the sums are
        bit-identical to it (docs/PERFORMANCE.md; not true of
        ``np.add.reduceat``, which adds sequentially).
        """
        cols = np.empty((7, self.n_switches))
        summed = (self._acc_tx, self._acc_marked, self._acc_qlen_area,
                  self._acc_drops, self.q_len, self.q_cap)
        for sw, idx in self._switch_classes():
            for col, a in zip(cols, summed):
                col[sw] = a[idx].sum(axis=1)
            cols[6, sw] = self.q_len[idx].max(axis=1, initial=0.0)
        cols[2] /= interval
        cols[5] *= 8.0
        tx, marked, avg_q, drops, qlen, cap, qmax = cols.tolist()
        # positional, in QueueStats field order: about half the cost of
        # a keyword construction per switch
        records = list(map(
            QueueStats, names, repeat(interval), qlen, qmax, avg_q,
            map(int, tx), map(int, marked),
            [int(d // 1000) if d else 0 for d in drops], cap,
            map(self._ecn_by_switch.__getitem__, range(len(names))),
            map(len, self._switch_index_cache())))
        # per-flow observations: columns now, rows or dicts on first read
        snap = self._snapshot_observations()
        for s, st in enumerate(records):
            st.defer_flow_obs(snap, s)
        return dict(zip(names, records))

    def _active_flow_columns(self) -> Tuple[List[int], np.ndarray,
                                            np.ndarray, np.ndarray,
                                            np.ndarray]:
        """Ids, bytes seen, queue paths and src/dst host ids of the active
        flows, copied out of the flow table in slot order."""
        act = self.f_active[:self._n_flows].nonzero()[0]
        idx_to_fid = self._idx_to_fid
        return ([idx_to_fid[i] for i in act.tolist()],
                self.f_size[act] - self.f_remaining[act], self.f_path[act],
                self.f_src[act], self.f_dst[act])

    def _snapshot_observations(self) -> _ObsSnapshot:
        return _ObsSnapshot(*self._active_flow_columns(), self.now,
                            self.flow_objs, self.q_switch)

    def switch_queue_indices(self, switch_name: str) -> List[int]:
        """Global queue ids belonging to one switch, in stable order."""
        return self._switch_index_cache()[
            self._switch_id(switch_name)].tolist()

    def port_stats(self) -> Dict[Tuple[str, int], QueueStats]:
        """Per-queue interval statistics (multi-queue mode, §4.5.2).

        Does not reset interval accumulators; pair with
        :meth:`queue_stats` once per interval.
        """
        interval = max(self._acc_time, 1e-12)
        out: Dict[Tuple[str, int], QueueStats] = {}
        for name, idx in zip(self._switch_names_cached(),
                             self._switch_index_cache()):
            for local, q in enumerate(idx.tolist()):
                out[(name, local)] = QueueStats(
                    switch=name, interval=interval,
                    qlen_bytes=float(self.q_len[q]),
                    max_port_qlen_bytes=float(self.q_len[q]),
                    avg_qlen_bytes=float(self._acc_qlen_area[q]) / interval,
                    tx_bytes=int(self._acc_tx[q]),
                    tx_marked_bytes=int(self._acc_marked[q]),
                    dropped_pkts=int(self._acc_drops[q] // 1000),
                    capacity_bps=float(self.q_cap[q] * 8.0),
                    ecn=ECNConfig(int(self.kmin[q]), int(self.kmax[q]),
                                  float(self.pmax[q])),
                    n_queues=1)
        return out

    def set_ecn_port(self, switch_name: str, port_idx: int,
                     config: ECNConfig) -> None:
        """Configure a single queue of a switch (multi-queue mode)."""
        qs = self.switch_queue_indices(switch_name)
        q = qs[port_idx]
        self.kmin[q] = config.kmin_bytes
        self.kmax[q] = config.kmax_bytes
        self.pmax[q] = config.pmax

    def set_ecn(self, switch_name: str, config: ECNConfig) -> None:
        s = self._switch_id(switch_name)
        idx = self._switch_index_cache()[s]
        self.kmin[idx] = config.kmin_bytes
        self.kmax[idx] = config.kmax_bytes
        self.pmax[idx] = config.pmax
        self._ecn_by_switch[s] = config
        get_registry().inc("netsim.ecn_set", sim=self._SIM_LABEL)

    def set_ecn_all(self, config: ECNConfig) -> None:
        for name in self.switch_names():
            self.set_ecn(name, config)

    # ------------------------------------------------------------ failures
    def fail_uplinks(self, fraction: float,
                     rng: Optional[np.random.Generator] = None) -> int:
        """Disable a fraction of the fabric's uplinks (leaf↔spine, or
        pod↔core on a fat-tree) and reroute around them."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rng = rng or self.rng
        flat = np.flatnonzero(self.uplink_up.ravel())
        k = max(1, int(round(fraction * self.uplink_up.size)))
        chosen = rng.choice(flat, size=min(k, flat.size), replace=False)
        up = self.uplink_up.ravel()
        up[chosen] = False
        self.uplink_up = up.reshape(self.uplink_up.shape)
        self._apply_link_state()
        return int(len(chosen))

    def restore_uplinks(self) -> None:
        self.uplink_up[:] = True
        self._apply_link_state()

    def set_fabric_capacity_factor(self, factor: float) -> None:
        """Uniformly scale fabric (switch↔switch) link capacity.

        Models partial degradation (FEC retrain, lane failure, chaos
        ``degrade`` faults): ``factor=0.5`` halves every fabric link;
        ``factor=1.0`` restores nominal capacity.  Recomputed from the
        nominal rates, so repeated calls do not accumulate error.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError("capacity factor must be in (0, 1]")
        self.fabric_capacity_factor = float(factor)
        self._apply_link_state()


class FluidNetwork(FlowTableMixin, SwitchStatsMixin):
    """Vectorized fluid simulation of a leaf–spine DCN.

    Queue layout (Q queues total):

    - ``leaf_down[j, h]`` — leaf j to each of its hosts (n_hosts queues),
    - ``leaf_up[j, s]``   — leaf j to spine s (n_leaf*n_spine),
    - ``spine_down[s, j]``— spine s to leaf j (n_spine*n_leaf).

    Each flow traverses up to three of them; intra-leaf flows only the
    final ``leaf_down``.
    """

    _MAX_HOPS = 3

    def __init__(self, config: Optional[FluidConfig] = None, *,
                 seed: Optional[int] = None) -> None:
        self.config = config or FluidConfig()
        self.rng = np.random.default_rng(seed)
        cfg = self.config
        self.now = 0.0

        # ---- queues ------------------------------------------------------
        n_ld = cfg.n_hosts
        n_lu = cfg.n_leaf * cfg.n_spine
        n_sd = cfg.n_spine * cfg.n_leaf
        self.n_queues = n_ld + n_lu + n_sd
        self._ld0, self._lu0, self._sd0 = 0, n_ld, n_ld + n_lu
        self.q_cap = np.empty(self.n_queues)                 # bytes/s
        self.q_cap[:n_ld] = cfg.host_rate_bps / 8.0
        self.q_cap[n_ld:] = cfg.spine_rate_bps / 8.0
        self.q_cap_nominal = self.q_cap.copy()
        self.q_len = np.zeros(self.n_queues)                 # bytes
        self.q_switch = np.empty(self.n_queues, dtype=np.int64)
        # switch ids: 0..n_leaf-1 leaves, n_leaf..n_leaf+n_spine-1 spines
        for i in range(n_ld):
            self.q_switch[self._ld0 + i] = i // cfg.hosts_per_leaf
        for j in range(cfg.n_leaf):
            for s in range(cfg.n_spine):
                self.q_switch[self._lu0 + j * cfg.n_spine + s] = j
                self.q_switch[self._sd0 + s * cfg.n_leaf + j] = cfg.n_leaf + s
        self.n_switches = cfg.n_leaf + cfg.n_spine
        self.kmin = np.full(self.n_queues, float(cfg.default_ecn.kmin_bytes))
        self.kmax = np.full(self.n_queues, float(cfg.default_ecn.kmax_bytes))
        self.pmax = np.full(self.n_queues, float(cfg.default_ecn.pmax))
        self._ecn_by_switch: Dict[int, ECNConfig] = {
            s: cfg.default_ecn for s in range(self.n_switches)}
        self.spine_up = np.ones(cfg.n_spine, dtype=bool)
        # per-(leaf,spine) uplink health for fine-grained failures
        self.uplink_up = np.ones((cfg.n_leaf, cfg.n_spine), dtype=bool)
        # uniform fabric capacity scale (chaos degradation faults)
        self.fabric_capacity_factor = 1.0

        # ---- flow arrays (grow-on-demand; FlowTableMixin) -----------------
        self._init_flow_table(cfg.initial_flow_capacity)
        self._init_flow_intake()

        # ---- interval stats accumulators -----------------------------------
        self._acc_tx = np.zeros(self.n_queues)        # bytes served
        self._acc_marked = np.zeros(self.n_queues)    # marked bytes served
        self._acc_qlen_area = np.zeros(self.n_queues)
        self._acc_time = 0.0
        self._acc_drops = np.zeros(self.n_queues)

    # ------------------------------------------------------------ topology
    def switch_names(self) -> List[str]:
        cfg = self.config
        return [f"leaf{j}" for j in range(cfg.n_leaf)] + \
               [f"spine{s}" for s in range(cfg.n_spine)]

    def host_names(self) -> List[str]:
        return [f"h{i}" for i in range(self.config.n_hosts)]

    def _switch_id(self, name: str) -> int:
        # Unknown names raise KeyError (not a bare int() ValueError) so
        # serve/chaos callers can degrade per-switch instead of crashing.
        try:
            if name.startswith("leaf"):
                s = int(name[4:])
                if 0 <= s < self.config.n_leaf:
                    return s
            elif name.startswith("spine"):
                s = int(name[5:])
                if 0 <= s < self.config.n_spine:
                    return self.config.n_leaf + s
        except ValueError:
            pass
        raise KeyError(f"unknown switch {name!r}")

    def _leaf_of(self, host: int) -> int:
        return host // self.config.hosts_per_leaf

    def _route(self, idx: int) -> None:
        """(Re)compute the queue path of flow slot ``idx``."""
        cfg = self.config
        src, dst = int(self.f_src[idx]), int(self.f_dst[idx])
        jl, jr = self._leaf_of(src), self._leaf_of(dst)
        path = np.full(self._MAX_HOPS, -1, dtype=np.int64)
        if jl == jr:
            path[0] = self._ld0 + dst
            self.f_spine[idx] = -1
        else:
            live = [s for s in range(cfg.n_spine)
                    if self.uplink_up[jl, s] and self.uplink_up[jr, s]]
            if not live:
                live = list(range(cfg.n_spine))   # partitioned: keep old path
            fid = self._idx_to_fid[idx]
            # Explicit splitmix64 mix (repro.netsim.routing): builtin
            # hash() is implementation-defined and unpinnable across
            # interpreter versions (PET007).
            s = live[ecmp_hash(fid, len(live))]
            self.f_spine[idx] = s
            path[0] = self._lu0 + jl * cfg.n_spine + s
            path[1] = self._sd0 + s * cfg.n_leaf + jr
            path[2] = self._ld0 + dst
        self.f_path[idx] = path

    # ------------------------------------------------------------ dynamics
    # (flow registration/activation lives in FlowTableMixin)
    def advance(self, dt: float) -> None:
        """Advance virtual time by ``dt`` (an integer number of steps)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if self._batch is not None:
            raise RuntimeError(
                "this FluidNetwork is a replica of a BatchFluidNetwork; "
                "advance the batch, or detach it first via split()")
        steps = max(1, int(round(dt / self.config.step_dt)))
        step_dt = self.config.step_dt
        for _ in range(steps):
            self._step_phases(step_dt)
        reg = get_registry()
        if reg:
            reg.inc("netsim.advance_calls", sim="fluid")
            reg.inc("netsim.steps", steps, sim="fluid")
            reg.inc("netsim.virtual_s", dt, sim="fluid")

    def _step_phases(self, dt: float) -> None:
        """One Δt through the shared phase functions, over the active
        flows gathered by slot."""
        cfg = self.config
        self.now += dt
        self._activate_due()
        self._acc_time += dt
        n = self._n_flows
        if n == 0:
            self._acc_qlen_area += self.q_len * dt
            return
        at = self.f_active[:n].nonzero()[0]
        rate = self.f_rate[at]
        path = self.f_path[at].T                    # (H, k), hop-major
        send, arrival, _ = flow_phase(
            self.f_src[at], rate, path, cfg.host_rate_bps / 8.0,
            cfg.n_hosts, self.n_queues)
        served_rate, new_qlen, drops, p_mark, srv_ratio = \
            integrate_queue_block(self.q_len, self.q_cap, self.kmin,
                                  self.kmax, self.pmax, arrival, dt,
                                  cfg.switch_buffer_bytes)
        account_queue_block(self._acc_tx, self._acc_marked,
                            self._acc_qlen_area, self._acc_drops, self.q_len,
                            served_rate, new_qlen, drops, p_mark, dt)
        qdelay, done = feedback_phase(
            cfg, dt, self.f_rate, self.f_alpha, self.f_remaining,
            self.f_active, at, rate, send, path, p_mark, srv_ratio,
            self.q_len, self.q_cap)
        self._settle(at, qdelay, done)

    def _settle(self, slots: np.ndarray, qdelay: np.ndarray,
                done: np.ndarray) -> None:
        """Completion records and the latency sample for this network's
        active flows, given in slot order with the step's outcome."""
        if done.any():
            self._finish_flows(slots[done].tolist(), self.now + qdelay[done])
            qdelay = qdelay[~done]
        sample_latency(self, qdelay)

    # ------------------------------------------------------------ link state
    # (queue_stats / set_ecn* / fail_uplinks & co. live in SwitchStatsMixin)
    def _apply_link_state(self) -> None:
        cfg = self.config
        for j in range(cfg.n_leaf):
            for s in range(cfg.n_spine):
                alive = self.uplink_up[j, s]
                factor = (self.fabric_capacity_factor if alive else 1e-6)
                qu = self._lu0 + j * cfg.n_spine + s
                qd = self._sd0 + s * cfg.n_leaf + j
                self.q_cap[qu] = self.q_cap_nominal[qu] * factor
                self.q_cap[qd] = self.q_cap_nominal[qd] * factor
        # Reroute flows whose spine is unreachable on either end.
        for i in np.flatnonzero(self.f_active[:self._n_flows]):
            s = int(self.f_spine[i])
            if s < 0:
                continue
            jl = self._leaf_of(int(self.f_src[i]))
            jr = self._leaf_of(int(self.f_dst[i]))
            if not (self.uplink_up[jl, s] and self.uplink_up[jr, s]):
                self._route(int(i))
