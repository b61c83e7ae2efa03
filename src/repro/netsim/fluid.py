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
ACC and the static baselines run unmodified on either simulator.

Every fluid network — solo, batch (:mod:`repro.netsim.batchfluid`) and
fat-tree (:mod:`repro.netsim.shard`) — keeps its flows in one
:class:`FlowTable` of ``(n_owners, cap)`` rows and is stepped by the one
:meth:`_FluidStepper._step`: :func:`flow_phase`,
:func:`integrate_queue_block` (+ :func:`account_queue_block`) and
:func:`feedback_phase` over the active rows (docs/PERFORMANCE.md, "One
flow table, one step"; ``tests/test_step_oracle.py`` holds the
plain-loop oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netsim.ecn import ECNConfig
from repro.netsim.ecn import SECN1 as _DEFAULT_ECN
from repro.netsim.flow import Flow
from repro.netsim.network import QueueStats
from repro.netsim.queueing import FlowObservation
from repro.netsim.routing import ecmp_hash_array
from repro.obs.metrics import get_registry

__all__ = ["FluidConfig", "FluidNetwork", "FlowTable", "FlowTableMixin",
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
    #: capacity never affects results — growth preserves contents — so
    #: tests shrink it to exercise mid-run reallocation cheaply.
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
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """NIC sharing + per-queue arrival reduction over the ``k`` active flows.

    ``src`` and ``rate`` are ``(k,)``; ``path`` is the hop-major ``(H, k)``
    matrix of queue ids, ``-1`` where a path is shorter than ``H``.  Hosts
    and queues are whatever index space the caller gathered them into:
    a network's own, or replica-offset ids (``r*n_hosts + h``,
    ``r*Q + q``) when several networks step as one.  Returns each flow's
    send rate, the arrival rate of every queue, and the queue of every
    on-path hop, hop-major (``path[path >= 0]``).

    Flows are summed into a queue in hop-major flow order — one
    ``bincount``, which adds in appearance order.  Where owners can share
    a queue (fat-tree pods feeding core and remote-pod queues), pass
    ``owners = (owner of each flow, first)``, ``first`` an int32 scratch
    of ``n_owners * n_queues`` entries at the int32 maximum (and left so):
    each owner's flows are summed per ``(owner, queue)`` row, and the rows
    are added into their queue in first-appearance order.  ``minimum.at``
    puts each row's first hop-major position in ``first``; that position
    is the row's ``bincount`` bin, so every other bin holds ``0.0``, and a
    non-negative sum plus ``+0.0`` is itself.  On the fat-tree that order
    is own pod first, then pod order (:mod:`repro.netsim.shard`) — the
    association of a per-pod exchange.
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
    # hop-major, like path[ok]; half the cost of ok.nonzero()[1]
    flow = np.broadcast_to(np.arange(path.shape[1]), path.shape)[ok]
    weights, queues = send[flow], path[ok]
    if owners is None:
        return send, np.bincount(queues, weights=weights,
                                 minlength=n_queues), queues
    flow_owner, first = owners
    keys = flow_owner[flow] * n_queues + queues
    np.minimum.at(first, keys, np.arange(len(keys), dtype=np.int32))
    row = first[keys]
    first[keys] = np.iinfo(np.int32).max
    partial = np.bincount(row, weights=weights, minlength=len(keys))
    return send, np.bincount(queues, weights=partial,
                             minlength=n_queues), queues


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

    ``at`` holds the flows' rows of the flat ``f_*`` columns; ``rate``,
    ``send`` and ``path`` are what :func:`flow_phase` took and returned.
    Rate, alpha and bytes remaining are updated in place, and a finished
    flow's slot is deactivated with nothing left to send.
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

    def due(self, now: float) -> Tuple[int, int]:
        """The row range ``[lo, hi)`` of the flows whose start time has
        come by ``now``, in start-time then registration order."""
        if self._staged:
            self._merge_staged()
        lo = self.lo
        if self._next_start > now:
            return lo, lo
        return lo, int(self.start.searchsorted(now, "right"))

    def pop_due(self, now: float) -> Tuple[int, int]:
        """Consume the flows whose start time has come; returns their
        :meth:`due` row range."""
        lo, hi = self.due(now)
        if hi > lo:
            self.lo = hi
            self._next_start = (float(self.start[hi]) if hi < len(self.start)
                                else math.inf)
        return lo, hi


class FlowTable:
    """The flow columns of ``n_owners`` owners as one ``(n_owners, cap)``
    stack stored flat (owner ``r``'s slot ``i`` is row ``r*cap + i``), so
    a step gathers and scatters with 1-D indices.  An owner's next slot
    is its LIFO free list's, else its high-water mark's; a full owner
    doubles every row.  ``f_fid`` holds flow ids (``[0, 2**64)``);
    ``choice`` names the ECMP-choice column (spine, core; ``-1``: none).
    """

    def __init__(self, n_owners: int, cap: int, hops: int,
                 choice: str) -> None:
        if cap < 1:
            raise ValueError("flow capacity must be >= 1")
        #: name, dtype and value of a slot never used, per column
        self.columns = (("f_src", np.int64, 0), ("f_dst", np.int64, 0),
                        ("f_size", float, 0), ("f_remaining", float, 0),
                        ("f_rate", float, 0), ("f_alpha", float, 0),
                        ("f_active", bool, 0), (choice, np.int64, -1),
                        ("f_path", np.int64, -1), ("f_fid", np.uint64, 0))
        self.choice, self.n_owners, self.hops, self.cap = choice, n_owners, hops, 0
        #: per owner: slots ever used (high-water mark) and recycled slots
        self.n_flows = [0] * n_owners
        self.free: List[List[int]] = [[] for _ in range(n_owners)]
        self._resize(cap)

    def _resize(self, cap: int) -> None:
        for name, dtype, fill in self.columns:
            tail = (self.hops,) if name == "f_path" else ()
            new = np.full((self.n_owners, cap) + tail, fill, dtype=dtype)
            if self.cap:
                new[:, :self.cap] = self.rows(name)
            setattr(self, name, new.reshape((-1,) + tail))
        self.cap = cap
        self._refresh_hi()

    def _refresh_hi(self) -> None:
        #: one past the last row any owner has used
        self.hi = max((r * self.cap + n for r, n in enumerate(self.n_flows)
                       if n), default=0)

    @classmethod
    def stack(cls, parts: Sequence[Tuple["FlowTable", int]]) -> "FlowTable":
        """A table whose owner ``k`` is a copy of owner ``r`` of the
        ``k``-th ``(table, r)`` of ``parts``: slots, free list and all."""
        first = parts[0][0]
        new = cls(len(parts), max(t.cap for t, _ in parts), first.hops,
                  first.choice)
        for k, (tab, r) in enumerate(parts):
            for name, _, _ in new.columns:
                new.rows(name)[k, :tab.cap] = tab.rows(name)[r]
            new.n_flows[k] = tab.n_flows[r]
            new.free[k] = list(tab.free[r])
        new._refresh_hi()
        return new

    def rows(self, name: str) -> np.ndarray:
        """Column ``name`` as its ``(n_owners, cap[, hops])`` stack (a view)."""
        col = getattr(self, name)
        return col.reshape((self.n_owners, self.cap) + col.shape[1:])

    @property
    def choices(self) -> np.ndarray:
        return getattr(self, self.choice)

    def row_bytes(self) -> int:
        """Resident bytes of one owner's slots (capacity, not usage)."""
        return sum(getattr(self, name).nbytes
                   for name, _, _ in self.columns) // self.n_owners

    def active(self, owners: range) -> np.ndarray:
        """Rows of the active flows of ``owners``, in (owner, slot) order."""
        lo = owners.start * self.cap
        at = self.f_active[lo:min(self.hi, owners.stop * self.cap)].nonzero()[0]
        return at + lo if lo else at

    def admit(self, owners: List[int], fid: np.ndarray, src: np.ndarray,
              dst: np.ndarray, size: np.ndarray, rate: float,
              path: np.ndarray, choice: np.ndarray) -> None:
        """Start one flow in a slot of each entry of ``owners``, in order."""
        n_flows, free = self.n_flows, self.free
        slots = []
        for r in owners:
            if free[r]:
                slots.append(free[r].pop())
            else:
                slots.append(n_flows[r])
                n_flows[r] += 1
        cap = self.cap
        while cap < max(n_flows):
            cap *= 2
        if cap > self.cap:
            self._resize(cap)
        rows = [r * cap + i for r, i in zip(owners, slots)]
        self.hi = max(self.hi, max(rows) + 1)
        at = np.array(rows)
        self.f_fid[at] = fid
        self.f_src[at] = src
        self.f_dst[at] = dst
        self.f_size[at] = self.f_remaining[at] = size
        self.f_rate[at] = rate
        self.f_alpha[at] = 1.0
        self.f_active[at] = True
        self.f_path[at] = path
        self.choices[at] = choice

    def release(self, rows: np.ndarray) -> None:
        """Give finished flows' slots back to their owners' free lists."""
        cap, free = self.cap, self.free
        for i in rows.tolist():
            free[i // cap].append(i % cap)


class _FluidStepper:
    """The one fluid Δt over a :class:`FlowTable`.  Hosts provide
    ``config``, ``_table``, the flat queue arrays and ``_nets`` (one
    network owning every row, or one per owner).  ``_OWNER_AXIS`` is
    ``None`` (one owner), ``"replica"`` (disjoint blocks: owner ``r``'s
    ids offset to ``r*n_hosts + h``, ``r*Q + q``, so no ``bincount`` bin
    mixes two) or ``"pod"`` (shared ids; the flows' owners and the host's
    ``_first_seen`` scratch go to :func:`flow_phase`)."""

    _OWNER_AXIS: Optional[str] = None

    def _advance(self, dt: float) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        steps = max(1, int(round(dt / self.config.step_dt)))
        for net in self._nets:      # admission routes this far ahead
            net._route_horizon = net.now + steps * self.config.step_dt
        self._step(self.config.step_dt, steps)
        reg = get_registry()
        if reg:
            reg.inc("netsim.advance_calls", sim=self._SIM_LABEL)
            reg.inc("netsim.steps", steps * len(self._nets),
                    sim=self._SIM_LABEL)
            reg.inc("netsim.virtual_s", dt, sim=self._SIM_LABEL)

    def _step(self, dt: float, steps: int = 1) -> None:
        """One window of ``steps`` Δt sub-steps, each: admission, then the
        three phases over the active rows in (owner, slot) order, then
        each network's completion records and Fig. 8 latency sample over
        its run of them.  The sub-steps run on the window's queues
        (:meth:`_open_window`); ``qmap`` relabels the paths into them."""
        cfg, tab, nets = self.config, self._table, self._nets
        q, qmap = self._open_window(dt, steps)
        for _ in range(steps):
            for net in nets:
                net.now += dt
                net._activate_due()
                net._acc_time += dt
            if not tab.hi:          # no flow yet: every queue is empty
                q._acc_qlen_area += q.q_len * dt
                continue
            at = tab.f_active[:tab.hi].nonzero()[0]
            rate, src = tab.f_rate[at], tab.f_src[at]
            n_hosts, owners = cfg.n_hosts, None
            # (H, k), hop-major; ``take`` gathers rows at a fraction of
            # the cost of ``f_path[at]``
            path = tab.f_path.take(at, axis=0)
            path = (path if qmap is None else qmap.take(path)).T
            if self._OWNER_AXIS == "pod":
                owners = (at // tab.cap, self._first_seen)
            elif self._OWNER_AXIS == "replica":
                owner = at // tab.cap
                n_hosts *= tab.n_owners
                src = src + owner * cfg.n_hosts
                path = np.where(path >= 0, path + owner * self.n_queues, -1)
            send, arrival, _ = flow_phase(
                src, rate, path, cfg.host_rate_bps / 8.0, n_hosts,
                len(q.q_len), owners)
            p_mark, srv_ratio = self._integrate(q, arrival, dt)
            qdelay, done = feedback_phase(
                cfg, dt, tab.f_rate, tab.f_alpha, tab.f_remaining,
                tab.f_active, at, rate, send, path, p_mark, srv_ratio,
                q.q_len, q.q_cap)
            bounds = ([0, len(at)] if len(nets) == 1 else at.searchsorted(
                np.arange(len(nets) + 1) * tab.cap).tolist())
            for net, lo, hi in zip(nets, bounds, bounds[1:]):
                fin, delay = done[lo:hi], qdelay[lo:hi]
                if fin.any():
                    rows = at[lo:hi][fin]
                    tab.release(rows)
                    # finish times keep the residual queueing delay and
                    # stay np.float64: fingerprints print them with repr
                    for fid, t in zip(tab.f_fid[rows].tolist(),
                                      net.now + delay[fin]):
                        flow = net.flow_objs[fid]
                        flow.finish_time = t
                        flow.bytes_sent = flow.bytes_acked = flow.size_bytes
                        net.finished_flows.append(flow)
                    delay = delay[~fin]
                # one draw of the network's RNG over its surviving flows
                if delay.size and len(net.latencies) < cfg.latency_sample_cap:
                    net.latencies.append((net.now, cfg.base_rtt / 2.0 + delay[
                        int(net.rng.integers(delay.size))]))
        self._close_window(q)

    def _open_window(self, dt: float, steps: int
                     ) -> Tuple[Any, Optional[np.ndarray]]:
        """The queues the next ``steps`` sub-steps run on — an object with
        the per-queue arrays — and the map of queue ids into them
        (``None``: the ids index them as they are).  Here the network's
        own arrays, every queue."""
        return self, None

    def _close_window(self, q: Any) -> None:
        """Hand the window's queues back (nothing to do on one's own)."""

    def _integrate(self, q: Any, arrival: np.ndarray,
                   dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """Integrate and account every queue of ``q``; returns ``(p_mark,
        srv_ratio)``."""
        served_rate, new_qlen, drops, p_mark, srv_ratio = \
            integrate_queue_block(q.q_len, q.q_cap, q.kmin, q.kmax, q.pmax,
                                  arrival, dt,
                                  self.config.switch_buffer_bytes)
        account_queue_block(q._acc_tx, q._acc_marked, q._acc_qlen_area,
                            q._acc_drops, q.q_len, served_rate, new_qlen,
                            drops, p_mark, dt)
        return p_mark, srv_ratio


class FlowTableMixin(_FluidStepper):
    """A network's flows — intake, routing, admission into the owners it
    holds (a solo network's one, replica ``r``'s, a fat-tree's pods) —
    given ``_owners_of(src)`` and ``_route_batch(fids, src, dst)`` →
    ``(paths, choices)``: ECMP over the uplinks ``uplink_up[i, c]`` up
    at both ends, ``i`` a host's leaf or pod."""

    def _init_flows(self, table: FlowTable, hosts_per_end: int) -> None:
        """Empty intake over ``table``, after ``_init_queues``."""
        self._table = table
        #: the owners (rows of ``_table``) this network's flows live in
        self._owners = range(table.n_owners)
        #: hosts under each row of ``uplink_up`` (a leaf, a pod)
        self._hosts_per_end = hosts_per_end
        self.flow_objs: Dict[int, Flow] = {}
        self._pending = _PendingFlows()
        self.finished_flows: List[Flow] = []
        self.latencies: List[Tuple[float, float]] = []
        #: routes computed ahead of admission, one batch per ``advance``
        #: window: ``(first pending row, path matrix, choice vector)``;
        #: dropped when link state or the pending rows' numbering changes
        self._routed: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        self._route_horizon = -np.inf
        self._refresh_routes()

    @property
    def _nets(self) -> Tuple["FlowTableMixin", ...]:
        return (self,)      # not stored: a self-reference would need the GC

    def host_names(self) -> List[str]:
        return [f"h{i}" for i in range(self.config.n_hosts)]

    def flow_table_bytes(self) -> int:
        """Resident bytes of this network's flow slots (capacity, not usage)."""
        return self._table.row_bytes() * len(self._owners)

    def start_flow(self, flow: Flow) -> None:
        """Register a flow; it activates when ``now`` reaches its start."""
        self.start_flows([flow])

    def start_flows(self, flows: Sequence[Flow]) -> None:
        """Register a list of flows, all or none: a duplicate flow id or
        an unknown source or destination host anywhere in the list
        raises ``ValueError`` and registers nothing."""
        self._register(flows)

    def _register(self, flows: Sequence[Flow]) -> None:
        """Validate a whole list of flows, then register it: the flows go
        into ``flow_objs`` and, as columns, into the pending table.

        Raises ``ValueError`` — before anything is registered — on a flow
        id that is already registered, repeated in the list or outside
        ``[0, 2**64)``, and on a source or destination that is not a host
        of this fabric.  Each distinct host name is parsed once.
        """
        flow_objs = self.flow_objs
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
                i = self._host_index(name)
            except KeyError:
                i = -1
            if not 0 <= i < self.config.n_hosts:
                raise ValueError(f"unknown host {name}")
            index[name] = i
        self._pending.add(
            np.array([f.start_time for f in flows], dtype=np.float64), fid_col,
            np.array([index[h] for h in src], dtype=np.int32),
            np.array([index[h] for h in dst], dtype=np.int32),
            np.array([f.size_bytes for f in flows], dtype=np.float64))
        flow_objs.update(zip(ids, flows))
        self._routed = None     # the merge renumbers the pending rows

    @staticmethod
    def _host_index(name) -> int:
        if isinstance(name, str):
            try:
                return int(name[1:])
            except ValueError:
                raise KeyError(f"unknown host {name!r}") from None
        return int(name)

    def _activate_due(self) -> None:
        """Admit the flows whose start time has come, in start-time then
        registration order, with routes made for the whole ``advance``
        window in one call (its cost is almost all fixed)."""
        pend, cfg = self._pending, self.config
        lo, hi = pend.pop_due(self.now)
        if lo == hi:
            return
        r0, paths, choices = self._route_ahead(lo, hi)
        self._table.admit(
            self._owners_of(pend.src[lo:hi]), pend.fid[lo:hi],
            pend.src[lo:hi], pend.dst[lo:hi], pend.size[lo:hi],
            cfg.start_rate_fraction * cfg.host_rate_bps / 8.0,
            paths[lo - r0:hi - r0], choices[lo - r0:hi - r0])

    def _route_ahead(self, lo: int, hi: int
                     ) -> Tuple[int, np.ndarray, np.ndarray]:
        """``_routed``, made to hold the routes of pending rows ``[lo,
        hi)``: when it does not, every pending row from ``lo`` up to
        ``hi`` and to ``_route_horizon`` is routed in one call."""
        if self._routed is None or hi > self._routed[0] + len(self._routed[2]):
            pend = self._pending
            ahead = max(hi, int(pend.start.searchsorted(self._route_horizon,
                                                        "right")))
            self._routed = (lo, *self._route_batch(
                pend.fid[lo:ahead], pend.src[lo:ahead], pend.dst[lo:ahead]))
        return self._routed

    def _refresh_routes(self) -> None:
        """Rebuild ``_live[i, j, :_n_live[i, j]]``, the uplinks up at both
        ends ``i``, ``j`` (every uplink for a partitioned pair), drop the
        routes made ahead, and re-route in place the active flows whose
        choice lost an uplink."""
        up = self.uplink_up
        both = up[:, None, :] & up[None, :, :]
        both[~both.any(axis=2)] = True
        self._n_live = both.sum(axis=2)
        self._live = np.argsort(~both, axis=2, kind="stable")
        self._routed = None
        tab, at = self._table, self._table.active(self._owners)
        c, src, dst = tab.choices[at], tab.f_src[at], tab.f_dst[at]
        end = self._hosts_per_end
        cut = (c >= 0) & ~(up[src // end, c] & up[dst // end, c])
        if cut.any():
            at = at[cut]
            tab.f_path[at], tab.choices[at] = self._route_batch(
                tab.f_fid[at], src[cut], dst[cut])

    def _snapshot_observations(self) -> _ObsSnapshot:
        """The active flows' ids, bytes seen, queue paths and src/dst host
        ids, copied out in (owner, slot) order."""
        tab, at = self._table, self._table.active(self._owners)
        return _ObsSnapshot(
            tab.f_fid[at].tolist(), tab.f_size[at] - tab.f_remaining[at],
            tab.f_path[at], tab.f_src[at], tab.f_dst[at], self.now,
            self.flow_objs, self.q_switch)

    def active_flow_count(self) -> int:
        return len(self._table.active(self._owners)) + len(self._pending)

    @property
    def flows(self) -> Dict[int, Flow]:
        return self.flow_objs


class _ObsSnapshot:
    """Collection-time copy of what the per-flow observations are made
    of — the active flows' ids, bytes seen, endpoints and queue paths, in
    flow-table order.  Array consumers read :meth:`rows`; a switch's
    ``{fid: FlowObservation}`` dict (:meth:`of_switch`) is a view of
    them.  Holding copies makes both immune to whatever happens to the
    flow slots afterwards.
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
        self._obs: Dict[int, FlowObservation] = {}

    def rows(self) -> Tuple[np.ndarray, ...]:
        """The observations of every switch as five int64 columns
        ``(switch index, flow id, src host id, dst host id, bytes seen)``
        — one row per (flow, switch on its path), flows in slot order and
        a flow's switches in path order (a switch it meets twice counts
        at its first hop), every row last seen at collection time.  Built
        on first call and shared by every reader of the collection."""
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

    def of_switch(self, s: int) -> Dict[int, FlowObservation]:
        """Switch ``s``'s rows as ``{fid: FlowObservation}``, in row order —
        one observation per flow, shared by every switch on its path."""
        sw, fid, _, _, seen = self.rows()
        mine = (sw == s).nonzero()[0]
        obs, flows, now = self._obs, self._flow_objs, self._now
        for f, b in zip(fid[mine].tolist(), seen[mine].tolist()):
            if f not in obs:
                obs[f] = FlowObservation(f, flows[f].src, flows[f].dst, b, now)
        return {f: obs[f] for f in fid[mine].tolist()}


class SwitchStatsMixin:
    """Per-switch statistics, ECN control and link state over a flat
    queue array.

    Generic over topology: hosts call :meth:`_init_queues` and provide
    ``switch_names()``, the flow table, ``rng`` and ``_refresh_routes()``
    (the re-route after a link change).  Both the monolithic leaf–spine
    network and the fat-tree expose the exact
    :class:`~repro.netsim.network.PacketNetwork` stats interface through
    this mixin, so PET/ACC controllers run unmodified on any of the three
    simulators.
    """

    #: the ``sim`` label of this substrate's ``netsim.*`` counters —
    #: the one its ``advance`` reports.
    _SIM_LABEL = "fluid"

    # lazily built caches of the static queue layout (``q_switch``)
    _names_cache: Optional[List[str]] = None
    _ids_cache: Optional[Dict[str, int]] = None
    _sw_q_idx: Optional[List[np.ndarray]] = None
    _sw_classes: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
    #: bytes dropped in the intervals already collected
    _dropped_bytes = 0.0

    def _init_queues(self, q_cap: np.ndarray, q_switch: np.ndarray,
                     n_switches: int, uplinks: Tuple[np.ndarray, ...],
                     fabric: np.ndarray) -> None:
        """Empty queues of capacity ``q_cap`` (bytes/s) on switches
        ``q_switch`` with default ECN and every link up.  ``uplinks``: the
        queues of each failable link's two directions, shaped like
        ``uplink_up``; ``fabric``: the other switch-to-switch queues."""
        n, ecn = len(q_cap), self.config.default_ecn
        self.n_queues, self.n_switches = n, n_switches
        self.q_cap, self.q_cap_nominal = q_cap, q_cap.copy()
        self.q_switch = q_switch
        self.q_len = np.zeros(n)                                # bytes
        self.kmin = np.full(n, float(ecn.kmin_bytes))
        self.kmax = np.full(n, float(ecn.kmax_bytes))
        self.pmax = np.full(n, float(ecn.pmax))
        self._switch_ecn: Dict[int, ECNConfig] = {
            s: ecn for s in range(n_switches)}
        self._uplink_queues, self._fabric_queues = uplinks, fabric
        self.uplink_up = np.ones(uplinks[0].shape, dtype=bool)
        # uniform fabric capacity scale (chaos degradation faults)
        self.fabric_capacity_factor = 1.0
        self._acc_tx = np.zeros(n)              # bytes served
        self._acc_marked = np.zeros(n)          # marked bytes served
        self._acc_qlen_area = np.zeros(n)
        self._acc_drops = np.zeros(n)
        self._acc_time = 0.0

    def _switch_id(self, name: str) -> int:
        # Unknown names raise KeyError (not a bare int() ValueError) so
        # serve/chaos callers can degrade per-switch instead of crashing.
        if self._ids_cache is None:
            self._ids_cache = {n: s for s, n in
                               enumerate(self._switch_names_cached())}
        try:
            return self._ids_cache[name]
        except KeyError:
            raise KeyError(f"unknown switch {name!r}") from None

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
        ``np.add.reduceat``, which is neither pairwise nor sequential).
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
            map(self._switch_ecn.__getitem__, range(len(names))),
            map(len, self._switch_index_cache())))
        # per-flow observations: columns now, rows or dicts on first read
        snap = self._snapshot_observations()
        for s, st in enumerate(records):
            st.defer_flow_obs(snap, s)
        return dict(zip(names, records))

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
        self._switch_ecn[s] = config
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

    def _apply_link_state(self) -> None:
        """Capacities from the nominal ones — a failed link keeps 1e-6 of
        its own — then the re-route."""
        factor = self.fabric_capacity_factor
        q = self._fabric_queues
        self.q_cap[q] = self.q_cap_nominal[q] * factor
        link = np.where(self.uplink_up, factor, 1e-6)
        for q in self._uplink_queues:
            self.q_cap[q] = self.q_cap_nominal[q] * link
        self._refresh_routes()


class FluidNetwork(FlowTableMixin, SwitchStatsMixin):
    """Vectorized fluid simulation of a leaf–spine DCN.

    Queue layout (Q queues total):

    - ``leaf_down[j, h]`` — leaf j to each of its hosts (n_hosts queues),
    - ``leaf_up[j, s]``   — leaf j to spine s (n_leaf*n_spine),
    - ``spine_down[s, j]``— spine s to leaf j (n_spine*n_leaf).

    Each flow traverses up to three of them; intra-leaf flows only the
    final ``leaf_down``.  A solo network owns the one row of its flow
    table; a replica of a :class:`~repro.netsim.batchfluid.
    BatchFluidNetwork` owns row ``r`` of the batch's.
    """

    _MAX_HOPS = 3

    def __init__(self, config: Optional[FluidConfig] = None, *,
                 seed: Optional[int] = None) -> None:
        self.config = cfg = config or FluidConfig()
        self.rng = np.random.default_rng(seed)
        self.now = 0.0
        n_ld, n_lu = cfg.n_hosts, cfg.n_leaf * cfg.n_spine
        self._ld0, self._lu0, self._sd0 = 0, n_ld, n_ld + n_lu
        j, s = np.arange(cfg.n_leaf)[:, None], np.arange(cfg.n_spine)
        leaf_up = self._lu0 + j * cfg.n_spine + s     # (n_leaf, n_spine)
        spine_down = self._sd0 + s * cfg.n_leaf + j
        q_cap = np.full(n_ld + 2 * n_lu, cfg.spine_rate_bps / 8.0)
        q_cap[:n_ld] = cfg.host_rate_bps / 8.0
        # switch ids: 0..n_leaf-1 leaves, n_leaf..n_leaf+n_spine-1 spines
        q_switch = np.empty(len(q_cap), dtype=np.int64)
        q_switch[:n_ld] = np.arange(n_ld) // cfg.hosts_per_leaf
        q_switch[leaf_up], q_switch[spine_down] = j, cfg.n_leaf + s
        # uplink_up[j, s]: the leaf j <-> spine s link
        self._init_queues(q_cap, q_switch, cfg.n_leaf + cfg.n_spine,
                          (leaf_up, spine_down), np.empty(0, np.int64))
        self._init_flows(FlowTable(1, cfg.initial_flow_capacity,
                                   self._MAX_HOPS, "f_spine"),
                         cfg.hosts_per_leaf)
        #: the batch this network is a replica of, if any
        self._batch = None

    def switch_names(self) -> List[str]:
        cfg = self.config
        return [f"leaf{j}" for j in range(cfg.n_leaf)] + \
               [f"spine{s}" for s in range(cfg.n_spine)]

    def _owners_of(self, src: np.ndarray) -> List[int]:
        return [self._owners.start] * len(src)

    def _route_batch(self, fids: np.ndarray, src: np.ndarray,
                     dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Queue paths (``(k, 3)``, ``-1``-padded) and spines (``-1`` for
        an intra-leaf flow) of ``k`` flows: the spine is the flow id's
        splitmix64 ECMP choice among those live at both leaves."""
        cfg = self.config
        jl, jr = src // cfg.hosts_per_leaf, dst // cfg.hosts_per_leaf
        path = np.full((len(fids), self._MAX_HOPS), -1, dtype=np.int64)
        spine = np.full(len(fids), -1, dtype=np.int64)
        path[:, 0] = self._ld0 + dst
        i = (jl != jr).nonzero()[0]
        jl, jr = jl[i], jr[i]
        s = self._live[jl, jr, ecmp_hash_array(fids[i], self._n_live[jl, jr])]
        path[i, 0] = self._lu0 + jl * cfg.n_spine + s
        path[i, 1] = self._sd0 + s * cfg.n_leaf + jr
        path[i, 2] = self._ld0 + dst[i]
        spine[i] = s
        return path, spine

    def advance(self, dt: float) -> None:
        """Advance virtual time by ``dt`` (an integer number of steps)."""
        if self._batch is not None:
            raise RuntimeError(
                "this FluidNetwork is a replica of a BatchFluidNetwork; "
                "advance the batch, or detach it first via split()")
        self._advance(dt)
