"""Sim-as-batch: R fluid-model replicas stepped as one network.

Pretraining seeds, sweep grids and chaos variants run R replicas of one
fabric that differ in seed, ECN rows, traffic or faults.
:class:`BatchFluidNetwork` pays the step's NumPy dispatch once for all:
replica ``r``'s flows are owner ``r`` of one
:class:`~repro.netsim.fluid.FlowTable`, its queues block ``r`` of flat
``(R*Q,)`` arrays, and its host and queue ids are offset into that block
(``r*n_hosts + h``, ``r*Q + q``), so no sum mixes two replicas.

Every replica is **bit-identical** to the solo :class:`FluidNetwork` of
its seed and config: the phases are elementwise, each offset bin adds
its replica's terms in the solo order, and clocks, admission, completion
records and latency draws (each replica's own RNG) run as solo, in
replica order.  ``view(r)`` is that network, with the solo surface but
``advance``; ``split()`` detaches every replica.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.netsim.ecn import ECNConfig
from repro.netsim.fluid import FlowTable, FluidConfig, FluidNetwork, _FluidStepper
from repro.netsim.network import QueueStats

__all__ = ["BatchCompatError", "BatchFluidNetwork"]

#: the per-queue arrays a replica keeps in its block of the batch's
_QUEUE_1D = ("q_len", "q_cap", "kmin", "kmax", "pmax",
             "_acc_tx", "_acc_marked", "_acc_qlen_area", "_acc_drops")


class BatchCompatError(ValueError):
    """Replicas cannot be batched (shape/config/time mismatch)."""


class BatchFluidNetwork(_FluidStepper):
    """R fluid-model replicas advanced by one step per Δt.

    Construct fresh replicas with ``BatchFluidNetwork(config, seeds=...)``
    or take existing (possibly mid-run) solo networks with
    :meth:`from_networks`.  Advance them together with :meth:`advance`;
    read or steer any replica through :meth:`view`; detach them all
    with :meth:`split`.
    """

    _OWNER_AXIS = "replica"
    _SIM_LABEL = "fluid_batch"

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
        self._stack(nets)

    @classmethod
    def from_networks(cls, nets: Sequence[FluidNetwork]
                      ) -> "BatchFluidNetwork":
        """Batch existing solo networks (state is taken as-is, mid-run ok).

        All replicas must be distinct, share the same fabric shape and
        fluid constants (``default_ecn``/``initial_flow_capacity`` may
        differ) and the same virtual time, and must not already belong
        to a batch.
        """
        batch = cls.__new__(cls)
        batch._stack(list(nets))
        return batch

    def _stack(self, nets: List[FluidNetwork]) -> None:
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
        if len({id(net) for net in nets}) < len(nets):
            # it would be stepped twice per Δt
            raise BatchCompatError("a network appears twice in the batch")
        ref = nets[0]
        for net in nets[1:]:
            # default_ecn only seeds a replica's own ECN rows, and flow
            # capacity never affects results; the step shares the rest
            if replace(net.config, default_ecn=ref.config.default_ecn,
                       initial_flow_capacity=ref.config.initial_flow_capacity
                       ) != ref.config:
                raise BatchCompatError(
                    "replicas must share fabric shape and fluid constants "
                    "(only ECN configs, seeds, traffic and faults may "
                    "differ)")
            # Lockstep demands *bit-identical* clocks, not merely close
            # ones — a ULP of drift would desynchronize _activate_due.
            if net.now != ref.now:  # pet: noqa-PET003
                raise BatchCompatError(
                    "replicas must share virtual time at adoption")
        self._nets, self.config = nets, ref.config
        self.R, self.n_queues = len(nets), ref.n_queues
        self._detached = False
        self._table = FlowTable.stack([(net._table, net._owners.start)
                                       for net in nets])
        q = self.n_queues
        for name in _QUEUE_1D:
            flat = np.concatenate([getattr(net, name) for net in nets])
            setattr(self, name, flat)
            for r, net in enumerate(nets):
                setattr(net, name, flat[r * q:(r + 1) * q])
        for r, net in enumerate(nets):
            net._table, net._owners, net._batch = self._table, range(r, r + 1), self

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return self.R

    @property
    def now(self) -> float:
        return self._nets[0].now

    def view(self, r: int) -> FluidNetwork:
        """Replica ``r`` as a live :class:`FluidNetwork` (shared storage).

        Supports the full solo surface — ``queue_stats``,
        ``flow_observations`` (via ``queue_stats``), ``set_ecn``,
        failures, ``start_flows`` — except ``advance``, which must go
        through the batch.
        """
        return self._nets[r]

    def views(self) -> List[FluidNetwork]:
        return list(self._nets)

    def queue_stats(self) -> List[Dict[str, QueueStats]]:
        """Per-replica interval statistics (resets each replica's
        interval), replica-major."""
        return [net.queue_stats() for net in self._nets]

    def split(self) -> List[FluidNetwork]:
        """Detach every replica into a standalone solo network.

        Each replica takes copies of its queue block and of its owner of
        the flow table; continuing to ``advance`` a detached replica is
        bit-identical to having continued the batch.  The batch itself
        becomes unusable.
        """
        for r, net in enumerate(self._nets):
            for name in _QUEUE_1D:
                setattr(net, name, getattr(net, name).copy())
            net._table = FlowTable.stack([(self._table, r)])
            net._owners, net._batch = range(1), None
        self._detached = True
        return list(self._nets)

    # ------------------------------------------------------------ dynamics
    def advance(self, dt: float) -> None:
        """Advance all replicas by ``dt`` (an integer number of steps)."""
        if self._detached:
            raise RuntimeError("batch was split(); advance the replicas")
        self._advance(dt)
