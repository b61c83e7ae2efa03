"""Sim-as-batch: step R fluid-model replicas as one tensor program.

Every evaluation harness in this repo — multi-seed pretraining, sweep
grids, figure matrices, chaos sweeps — runs R *independent* replicas of
the same fabric that differ only in seed, ECN configuration, traffic,
or fault plan.  Stepping them as R separate :class:`FluidNetwork`
objects pays the Python step overhead R times per Δt;
:class:`BatchFluidNetwork` steps them through the **same phase
functions** a solo network uses (:func:`~repro.netsim.fluid.flow_phase`,
:func:`~repro.netsim.fluid.integrate_queue_block`,
:func:`~repro.netsim.fluid.feedback_phase`), once per Δt over the active
``(replica, slot)`` pairs of all R flow tables and the flattened
``(R*Q,)`` queue state.

Every replica of a batch is **bit-identical** (canonical fingerprints)
to a solo ``FluidNetwork`` run with the same seed/config, by
construction rather than by tolerance:

- the phase functions are elementwise per flow and per queue, so which
  other flows or queues share a call never changes an element;
- the two ordered sums (``np.bincount`` for NIC sharing and for queue
  arrivals) run on **replica-offset** index spaces (replica r's host h →
  bin ``r*n_hosts + h``; queue q → bin ``r*Q + q``), so each bin
  receives exactly its own replica's contributions in exactly the solo
  order (hop-major, then slot order);
- a replica that has no flows yet has all-zero queues, for which a full
  step leaves the bits of the solo idle step;
- per-replica bookkeeping that is inherently scalar — flow activation,
  slot recycling, completion, Fig. 8 latency sampling with the
  replica's own RNG — runs the solo code per replica, in replica-major
  order, against row views of the batch storage.

Replicas are real :class:`FluidNetwork` instances whose queue/flow
arrays are **row views** into the batch's ``(R, ...)`` storage:
``view(r)`` therefore supports the entire solo read/control surface
(``queue_stats``, ``set_ecn``, ``fail_uplinks``,
``set_fabric_capacity_factor``, ``start_flows``) unmodified and
indistinguishably from a solo network — heterogeneous per-replica ECN
configs, mid-run ``set_ecn`` divergence and chaos variants all work by
simply mutating one row.  Direct ``advance`` on an attached replica is
blocked (the batch owns time); ``split()`` detaches every replica into
a standalone network that continues bit-identically on its own.

Memory is the ``(R, flow_capacity)`` flow table plus nine ``(R, Q)``
queue rows; the step keeps no scratch between calls — see
docs/PERFORMANCE.md for the ``sim_batch`` benchmark workload.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.netsim.ecn import ECNConfig
from repro.netsim.fluid import (FluidConfig, FluidNetwork,
                                account_queue_block, feedback_phase,
                                flow_phase, integrate_queue_block)
from repro.netsim.network import QueueStats
from repro.obs.metrics import get_registry

__all__ = ["BatchCompatError", "BatchFluidNetwork"]

_HOPS = FluidNetwork._MAX_HOPS

#: flow-array attributes adopted into (R, cap) batch storage.
_FLOW_1D = ("f_src", "f_dst", "f_size", "f_remaining", "f_rate",
            "f_alpha", "f_active", "f_spine")
#: queue-array attributes adopted into (R, Q) batch storage: the five
#: :func:`integrate_queue_block` takes, then the four interval
#: accumulators :func:`account_queue_block` takes, in argument order.
_QUEUE_1D = ("q_len", "q_cap", "kmin", "kmax", "pmax",
             "_acc_tx", "_acc_marked", "_acc_qlen_area", "_acc_drops")


class BatchCompatError(ValueError):
    """Replicas cannot be batched (shape/config/time mismatch)."""


def _kernel_config_key(cfg: FluidConfig) -> tuple:
    """The FluidConfig fields the batched kernel shares across replicas.

    ``default_ecn`` is excluded (it only seeds the per-replica
    kmin/kmax/pmax rows, which stay heterogeneous) and so is
    ``initial_flow_capacity`` (capacity never affects results).
    """
    return (cfg.n_spine, cfg.n_leaf, cfg.hosts_per_leaf, cfg.host_rate_bps,
            cfg.spine_rate_bps, cfg.base_rtt, cfg.step_dt, cfg.g,
            cfg.md_gain, cfg.ai_fraction, cfg.min_rate_fraction,
            cfg.start_rate_fraction, cfg.switch_buffer_bytes,
            cfg.latency_sample_cap)


class BatchFluidNetwork:
    """R fluid-model replicas advanced by one pass of the step phases.

    Construct fresh replicas with ``BatchFluidNetwork(config, seeds=...)``
    or adopt existing (possibly mid-run) solo networks with
    :meth:`from_networks`.  Advance them together with :meth:`advance`;
    read or steer any replica through :meth:`view`; detach them all
    with :meth:`split`.
    """

    def __init__(self, config: Optional[FluidConfig] = None, *,
                 seeds: Sequence[Optional[int]] = (0,),
                 ecn_configs: Optional[Sequence[ECNConfig]] = None) -> None:
        config = config or FluidConfig()
        if len(seeds) < 1:
            raise BatchCompatError("need at least one replica seed")
        if ecn_configs is not None and len(ecn_configs) != len(seeds):
            raise BatchCompatError("ecn_configs must match seeds length")
        nets = [FluidNetwork(config, seed=s) for s in seeds]
        if ecn_configs is not None:
            for net, ecn in zip(nets, ecn_configs):
                net.set_ecn_all(ecn)
        self._adopt(nets)

    @classmethod
    def from_networks(cls, nets: Sequence[FluidNetwork]
                      ) -> "BatchFluidNetwork":
        """Adopt existing solo networks (state is taken as-is, mid-run ok).

        All replicas must share the same fabric shape and fluid
        constants (``default_ecn``/``initial_flow_capacity`` may
        differ), the same virtual time, and must not already belong to
        another batch.
        """
        batch = cls.__new__(cls)
        batch._adopt(list(nets))
        return batch

    # ------------------------------------------------------------ adoption
    def _adopt(self, nets: List[FluidNetwork]) -> None:
        if not nets:
            raise BatchCompatError("need at least one replica")
        for net in nets:
            if not isinstance(net, FluidNetwork):
                raise BatchCompatError(
                    f"replica backend requires FluidNetwork instances, "
                    f"got {type(net).__name__}")
            if net._batch is not None:
                raise BatchCompatError(
                    "network already belongs to a BatchFluidNetwork")
        ref = nets[0]
        key = _kernel_config_key(ref.config)
        for net in nets[1:]:
            if _kernel_config_key(net.config) != key:
                raise BatchCompatError(
                    "replicas must share fabric shape and fluid constants "
                    "(only ECN configs, seeds, traffic and faults may "
                    "differ)")
            # Lockstep demands *bit-identical* clocks, not merely close
            # ones — a ULP of drift would desynchronize _activate_due.
            if net.now != ref.now:  # pet: noqa-PET003
                raise BatchCompatError(
                    "replicas must share virtual time at adoption")
        self.nets = nets
        self.config = ref.config
        self.R = len(nets)
        self.n_queues = ref.n_queues
        self._detached = False

        R, nq = self.R, self.n_queues
        cap = max(net._cap_flows for net in nets)
        # ---- queue-space batch storage (adopt values, re-point views) ----
        flat = []
        for name in _QUEUE_1D:
            batched = np.zeros((R, nq))
            for r, net in enumerate(nets):
                batched[r] = getattr(net, name)
            setattr(self, "_q_" + name.lstrip("_"), batched)
            for r, net in enumerate(nets):
                setattr(net, name, batched[r])
            flat.append(batched.reshape(-1))
        #: the same storage as flat ``(R*Q,)`` views — replica r's queue q
        #: at ``r*Q + q`` — which is what the phase functions step
        self._queues, self._acc = flat[:5], flat[5:]
        # ---- flow-space batch storage ------------------------------------
        self._cap = cap
        self._alloc_flow_storage(cap, copy_from=None)
        for r, net in enumerate(nets):
            ncap = net._cap_flows
            for name in _FLOW_1D:
                getattr(self, "_f_" + name[2:])[r, :ncap] = getattr(net, name)
            self._f_path[r, :ncap] = net.f_path
            self._point_views(r)
            net._cap_flows = cap
            net._batch = self

    def _alloc_flow_storage(self, cap: int, copy_from: Optional[int]) -> None:
        """(Re)allocate the (R, cap) flow matrices; ``copy_from`` is the
        previous capacity to preserve, or None on first allocation."""
        R = self.R
        dtypes = {"f_src": np.int64, "f_dst": np.int64, "f_size": float,
                  "f_remaining": float, "f_rate": float, "f_alpha": float,
                  "f_active": bool, "f_spine": np.int64}
        for name in _FLOW_1D:
            new = np.zeros((R, cap), dtype=dtypes[name])
            if name == "f_spine":
                new.fill(-1)
            if copy_from:
                new[:, :copy_from] = getattr(self, "_f_" + name[2:])
            setattr(self, "_f_" + name[2:], new)
        new_path = np.full((R, cap, _HOPS), -1, dtype=np.int64)
        if copy_from:
            new_path[:, :copy_from] = self._f_path
        self._f_path = new_path

    def _point_views(self, r: int) -> None:
        net = self.nets[r]
        for name in _FLOW_1D:
            setattr(net, name, getattr(self, "_f_" + name[2:])[r])
        net.f_path = self._f_path[r]

    def _grow_flows(self) -> None:
        """Double the batch flow capacity, preserving every replica's
        aliasing (called from :meth:`FluidNetwork._grow` on any replica)."""
        if self._detached:
            raise RuntimeError("batch was split(); replicas own their "
                               "arrays now")
        old_cap, new_cap = self._cap, self._cap * 2
        self._alloc_flow_storage(new_cap, copy_from=old_cap)
        self._cap = new_cap
        for r, net in enumerate(self.nets):
            self._point_views(r)
            net._cap_flows = new_cap

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return self.R

    @property
    def now(self) -> float:
        return self.nets[0].now

    def view(self, r: int) -> FluidNetwork:
        """Replica ``r`` as a live :class:`FluidNetwork` (shared storage).

        Supports the full solo surface — ``queue_stats``,
        ``flow_observations`` (via ``queue_stats``), ``set_ecn``,
        failures, ``start_flows`` — except ``advance``, which must go
        through the batch.
        """
        return self.nets[r]

    def views(self) -> List[FluidNetwork]:
        return list(self.nets)

    def queue_stats(self) -> List[Dict[str, QueueStats]]:
        """Per-replica interval statistics (resets each replica's
        interval), replica-major."""
        return [net.queue_stats() for net in self.nets]

    def split(self) -> List[FluidNetwork]:
        """Detach every replica into a standalone solo network.

        Each replica takes ownership of copies of its rows; continuing
        to ``advance`` a detached replica is bit-identical to having
        continued the batch.  The batch itself becomes unusable.
        """
        for r, net in enumerate(self.nets):
            for name in _QUEUE_1D:
                setattr(net, name, getattr(net, name).copy())
            for name in _FLOW_1D:
                setattr(net, name, getattr(net, name).copy())
            net.f_path = net.f_path.copy()
            net._batch = None
        self._detached = True
        return list(self.nets)

    # ------------------------------------------------------------ dynamics
    def advance(self, dt: float) -> None:
        """Advance all replicas by ``dt`` (an integer number of steps)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if self._detached:
            raise RuntimeError("batch was split(); advance the replicas")
        steps = max(1, int(round(dt / self.config.step_dt)))
        step_dt = self.config.step_dt
        for _ in range(steps):
            self._step(step_dt)
        reg = get_registry()
        if reg:
            reg.inc("netsim.advance_calls", sim="fluid_batch")
            reg.inc("netsim.steps", steps * self.R, sim="fluid_batch")
            reg.inc("netsim.virtual_s", dt, sim="fluid_batch")

    def _step(self, dt: float) -> None:
        """One Δt for all R replicas: the solo step's phases over the
        active ``(replica, slot)`` pairs, replica r's hosts and queues
        offset into its own block of one flat index space
        (``r*n_hosts + h``, ``r*Q + q``), so no sum mixes two replicas."""
        cfg = self.config
        nets = self.nets
        R, nq = self.R, self.n_queues
        for net in nets:
            net.now += dt
            net._activate_due()          # may trigger _grow_flows()
            net._acc_time += dt
        n = max(net._n_flows for net in nets)
        at = replica, slots = self._f_active[:, :n].nonzero()
        rate = self._f_rate[at]
        path = self._f_path[at].T                   # (H, k), hop-major
        path = np.where(path >= 0, path + replica * nq, -1)
        send, arrival, _ = flow_phase(
            self._f_src[at] + replica * cfg.n_hosts, rate, path,
            cfg.host_rate_bps / 8.0, R * cfg.n_hosts, R * nq)
        served_rate, new_qlen, drops, p_mark, srv_ratio = \
            integrate_queue_block(*self._queues, arrival, dt,
                                  cfg.switch_buffer_bytes)
        q_len, q_cap = self._queues[:2]
        account_queue_block(*self._acc, q_len, served_rate, new_qlen, drops,
                            p_mark, dt)
        qdelay, done = feedback_phase(
            cfg, dt, self._f_rate, self._f_alpha, self._f_remaining,
            self._f_active, at, rate, send, path, p_mark, srv_ratio,
            q_len, q_cap)
        # completion and latency sampling are each replica's own, over
        # its run of the replica-major flow vectors
        bounds = np.searchsorted(replica, np.arange(R + 1)).tolist()
        for net, lo, hi in zip(nets, bounds, bounds[1:]):
            net._settle(slots[lo:hi], qdelay[lo:hi], done[lo:hi])

    # ------------------------------------------------------------ control
    def set_ecn(self, r: int, switch_name: str, config: ECNConfig) -> None:
        """Configure one replica's switch (convenience for
        ``view(r).set_ecn``)."""
        self.nets[r].set_ecn(switch_name, config)

    def set_ecn_all(self, r: int, config: ECNConfig) -> None:
        self.nets[r].set_ecn_all(config)
