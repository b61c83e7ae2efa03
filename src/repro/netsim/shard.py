"""Fluid simulation of a multi-pod fat-tree.

:class:`ShardedFluidNetwork` steps a fat-tree in one process
(docs/PERFORMANCE.md, "Why the fat-tree steps in one process") with the
one fluid step of :mod:`repro.netsim.fluid`, the **pods as its owners**:

- the queues are laid out in one contiguous block per pod (edge-down,
  edge-up, agg-up, agg-down), then the core plane;
- a flow lives in the row of its source edge's pod (:meth:`~repro.
  netsim.fattree.FatTreeConfig.owner_pod_of_flow`); the core plane owns
  none;
- pods can feed one queue: each pod's flows are summed per queue, and
  the rows are added into the queue in first-appearance order, hop-major
  with flows in (pod, slot) order (:func:`~repro.netsim.fluid.
  flow_phase`).  The routing makes that own pod first, then the others
  in pod order: edge-down is reached by its own pod at hop 0 or 2 and by
  every other pod at hop 4, agg-down at 1 and 3, core-down (no own pod)
  by every pod at hop 2, and edge-up / agg-up carry their own pod only;
- each ``advance`` is one **window**: its sub-steps run on one compact
  block of the queues that hold bytes when it opens or lie on the path
  of a flow active or admitted in it, gathered once and scattered back
  once.  Any other queue is empty and unfed for the whole window (link
  state, ECN and flows change only between windows), so integrating it
  would change no bit.

Ownership and the queue blocks are fixed by the topology, and a pod
that owns no flow contributes nothing, so the same flows on a fabric
with more (idle) pods give the same bits.  ``tests/test_shard.py`` pins
this with fingerprint literals, a plain-loop flow-phase oracle and the
idle-pods metamorphic test; ``tests/test_step_oracle.py`` steps every
queue with plain loops.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netsim.fattree import FatTreeConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FlowTable, FlowTableMixin, SwitchStatsMixin
from repro.netsim.routing import ecmp_hash_array

__all__ = ["ShardedFluidNetwork"]

#: per-queue arrays (attribute names), ``(n_queues,)`` but ``_qmap``,
#: which has one more entry
_QUEUE_FIELDS = ("q_len", "q_cap", "q_cap_nominal", "kmin", "kmax", "pmax",
                 "_acc_tx", "_acc_marked", "_acc_qlen_area", "_acc_drops",
                 "q_switch", "_qmap")
#: the per-queue arrays a window's block holds; a sub-step writes the
#: first five, and only those are scattered back
_WINDOW_FIELDS = ("q_len", "_acc_tx", "_acc_marked", "_acc_qlen_area",
                  "_acc_drops", "q_cap", "kmin", "kmax", "pmax")


class ShardedFluidNetwork(FlowTableMixin, SwitchStatsMixin):
    """Vectorized fluid simulation of a fat-tree, stepped in one process.

    Queue layout, per pod ``p`` (one contiguous block each), then core:

    - ``edge_down[e, h]`` — edge ``e`` to each local host,
    - ``edge_up[e, a]``   — edge ``e`` to agg ``a``,
    - ``agg_up[a, k]``    — agg ``a`` to its ``k``-th core,
    - ``agg_down[a, e]``  — agg ``a`` to edge ``e``,
    - ``core_down[c, p]`` — core ``c`` to pod ``p`` (core block).

    An intra-edge flow takes 1 queue, intra-pod 3, inter-pod 5.  Owner
    ``p`` of the flow table holds the flows pod ``p`` owns.
    """

    _MAX_HOPS = 5
    _SIM_LABEL = "fluid_shard"
    _OWNER_AXIS = "pod"

    # ``shards=1``, ``close()`` and ``memory_report()``'s shape are what the
    # frozen benchmarks/perf harness uses; 1 is the only shard count.
    def __init__(self, config: Optional[FatTreeConfig] = None, *,
                 shards: int = 1, seed: Optional[int] = None) -> None:
        self.config = cfg = config or FatTreeConfig()
        if shards != 1:
            raise ValueError("the fat-tree steps in one process: shards "
                             f"must be 1, got {shards}")
        self.rng = np.random.default_rng(seed)
        self.now = 0.0

        # ---- queue layout: one block per pod, then the core plane --------
        n_p, n_e, n_a = cfg.n_pods, cfg.edge_per_pod, cfg.agg_per_pod
        cpa, n_c, hpp = cfg.core_per_agg, cfg.n_core, cfg.hosts_per_pod
        self._pb_edge_down = 0
        self._pb_edge_up = hpp
        self._pb_agg_up = hpp + n_e * n_a
        self._pb_agg_down = hpp + n_e * n_a + n_a * cpa
        self._pod_block = hpp + n_e * n_a + n_a * cpa + n_a * n_e
        self._core0 = n_p * self._pod_block
        n_queues = self._core0 + n_c * n_p
        p, e, a = np.arange(n_p)[:, None], np.arange(n_e), np.arange(n_a)
        c, h = np.arange(n_c), np.arange(hpp)
        sw0 = p * (n_e + n_a)            # each pod's first switch id
        edge_up = self._q_edge_up(p[..., None], e[:, None], a)
        agg_down = self._q_agg_down(p[..., None], a[:, None], e)
        agg_up, core_down = self._q_agg_up(p, c), self._q_core_down(c, p)
        q_cap = np.empty(n_queues)
        q_switch = np.empty(n_queues, dtype=np.int64)
        for q, rate, sw in (
                (self._q_edge_down(p, h), cfg.host_rate_bps,
                 sw0 + h // cfg.hosts_per_edge),
                (edge_up, cfg.agg_rate_bps, sw0[..., None] + e[:, None]),
                (agg_up, cfg.core_rate_bps, sw0 + n_e + c // cpa),
                (agg_down, cfg.agg_rate_bps, sw0[..., None] + n_e + a[:, None]),
                (core_down, cfg.core_rate_bps, n_p * (n_e + n_a) + c)):
            q_cap[q], q_switch[q] = rate / 8.0, sw
        # uplink_up[p, c]: the agg(p, c // cpa) <-> core c link, both
        # directions; pod-internal links have no failure bit
        self._init_queues(q_cap, q_switch, cfg.n_switches,
                          (agg_up, core_down),
                          np.concatenate((edge_up.ravel(), agg_down.ravel())))
        #: the flow phase's first-appearance scratch, one row of queues per
        #: pod (``pod * |W| + q`` over the open window's ``|W|`` queues),
        #: all int32 max between steps
        self._first_seen = np.full(n_p * n_queues, np.iinfo(np.int32).max,
                                   dtype=np.int32)
        #: queue id -> its index in the open window's block (stale outside
        #: it); the last entry maps the ``-1`` path padding to ``-1``
        self._qmap = np.full(n_queues + 1, -1, dtype=np.int64)
        self._init_flows(FlowTable(n_p, cfg.initial_flow_capacity,
                                   self._MAX_HOPS, "f_core"), hpp)

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

    def _route_batch(self, fids: np.ndarray, src: np.ndarray,
                     dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Queue paths (``(k, 5)``, ``-1``-padded) and cores (``-1`` when
        the flow stays inside its pod) of ``k`` flows."""
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
        c = self._live[ps[i], pd[i], ecmp_hash_array(
            fids[i], self._n_live[ps[i], pd[i]])]
        a = c // cfg.core_per_agg
        path[i, 0] = self._q_edge_up(ps[i], es[i], a)
        path[i, 1] = self._q_agg_up(ps[i], c)
        path[i, 2] = self._q_core_down(c, pd[i])
        path[i, 3] = self._q_agg_down(pd[i], a, ed[i])
        path[i, 4] = down[i]
        core[i] = c
        return path, core

    # ------------------------------------------------------------ flows
    # defined here, not inherited: the perf harness times this and
    # FlowTableMixin.start_flows as separate spans
    def start_flows(self, flows: Sequence[Flow]) -> None:
        """Register a list of flows, all or none: a duplicate flow id or
        an unknown source or destination host anywhere in the list
        raises ``ValueError`` and registers nothing."""
        self._register(flows)

    def _owners_of(self, src: np.ndarray) -> List[int]:
        return self.config.owner_pod_of_flow(src).tolist()

    # ------------------------------------------------------------ dynamics
    def advance(self, dt: float) -> None:
        """Advance virtual time by ``dt`` (an integer number of steps)."""
        self._advance(dt)

    def _open_window(self, dt: float, steps: int
                     ) -> Tuple[SimpleNamespace, np.ndarray]:
        """Gather the block the window's ``steps`` sub-steps run on: every
        queue whose buffer is not exactly empty (``!= 0.0``, so a NaN is
        kept), on an active flow's path, or on the path of a flow due by
        the window's last sub-step — routed here, into the ``_routed``
        its admission takes the route from.

        Every queue left out holds no bytes and receives none until the
        window closes, so its integration would be an exact no-op —
        ``+0.0`` on non-negative accumulators, ``q_len`` stays ``0.0`` —
        and no path reads its ``p_mark`` / ``srv_ratio``; leaving it out
        changes no bit.  Relabelling the queues leaves every ``bincount``
        bin's terms and their order as they were.
        """
        tab, n = self._table, self.n_queues
        keep = np.zeros(n + 1, dtype=bool)      # keep[n]: the -1 padding
        np.not_equal(self.q_len, 0.0, out=keep[:n])
        keep[tab.f_path[:tab.hi][tab.f_active[:tab.hi]]] = True
        end = self.now
        for _ in range(steps):
            end += dt
        lo, hi = self._pending.due(end)
        if hi > lo:
            r0, paths, _ = self._route_ahead(lo, hi)
            keep[paths[lo - r0:hi - r0]] = True
        queues = keep[:n].nonzero()[0]
        self._qmap[queues] = np.arange(len(queues))
        return SimpleNamespace(queues=queues, **{
            name: getattr(self, name)[queues] for name in _WINDOW_FIELDS}), \
            self._qmap

    def _close_window(self, q: SimpleNamespace) -> None:
        """Scatter what the sub-steps wrote back into the fabric's arrays."""
        for name in _WINDOW_FIELDS[:5]:
            getattr(self, name)[q.queues] = getattr(q, name)

    # ------------------------------------------------------------ capacity
    def bytes_in_flight(self) -> float:
        """Total buffered bytes across the fabric (conservation probe)."""
        return float(self.q_len.sum())

    def memory_report(self) -> Dict[str, Dict[str, int]]:
        """Bytes of the per-queue and per-flow arrays this network holds,
        attributed to ``pod{p}`` (its queue block, its row of the merge
        scratch and its row of the flow table — every row has the capacity
        the fullest pod has needed so far) and ``core`` (the core plane's
        queues; it owns no flows)."""
        per_queue = sum(getattr(self, name).itemsize
                        for name in _QUEUE_FIELDS)
        scratch = self._first_seen.nbytes // self.config.n_pods
        report = {f"pod{p}": {"queue_bytes": self._pod_block * per_queue
                              + scratch,
                              "flow_bytes": self._table.row_bytes()}
                  for p in range(self.config.n_pods)}
        report["core"] = {      # and ``_qmap``'s padding entry
            "queue_bytes": (self.n_queues - self._core0) * per_queue
            + self._qmap.itemsize,
            "flow_bytes": 0}
        return report
