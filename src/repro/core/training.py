"""Hybrid training (paper §4.4): offline pre-training + online tuning.

``run_control_loop`` is the generic drive loop shared by training,
evaluation and every benchmark: advance the simulator one Δt, read the
per-switch statistics, let the controller decide, repeat.  That tick is
written once, in :func:`drive`, over the replicas one ``advance`` moves:
``run_control_loop`` is its one-replica call, and a
:class:`~repro.netsim.batchfluid.BatchFluidNetwork` that
:func:`lockstep_groups` builds from R compatible fluid networks is its
R-replica call.

``pretrain_offline_multi`` reproduces the offline phase: a PET
controller is trained against simulated traffic on a training fabric,
crash-safe under a checkpoint manager, and its per-switch models are
exported for deployment.  Every pretraining — the experiment runner's
batched PET and ACC trainings included — runs the one episode loop,
:func:`_train`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.fingerprint import fingerprint
from repro.netsim.batchfluid import BatchFluidNetwork
from repro.netsim.ecn import SECN1
from repro.netsim.fluid import FluidNetwork
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.parallel.seeding import current_task_seed
from repro.rl.checkpoint import CheckpointManager

__all__ = ["LoopResult", "run_control_loop", "drive", "lockstep_groups",
           "pretrain_offline_multi"]


@dataclass
class LoopResult:
    """Aggregates of one control-loop run.

    The names predate what the fields hold and stay for their callers:
    none of them is an RL reward.
    """

    intervals: int
    #: mean of :attr:`reward_trace` — the run's mean link utilization
    mean_reward: float
    #: each switch's mean ``avg_qlen_bytes`` over the run's intervals
    rewards_per_switch: Dict[str, float]
    #: per-interval mean link utilization over every switch's ports
    reward_trace: List[float] = field(default_factory=list)
    #: structured fault events (:class:`repro.resilience.log.FaultEvent`)
    #: collected from the chaos injector and/or the resilient guard.
    faults: List = field(default_factory=list)

    @property
    def fault_count(self) -> int:
        return len(self.faults)


def _collect_faults(controller, chaos) -> List:
    """Merge fault events from the injector and a guarded controller."""
    logs = []
    if chaos is not None and getattr(chaos, "log", None) is not None:
        logs.append(chaos.log)
    guard_log = getattr(controller, "log", None)
    if guard_log is not None and all(guard_log is not lg for lg in logs):
        logs.append(guard_log)
    events = [e for lg in logs for e in getattr(lg, "events", [])]
    if len(logs) > 1:
        events.sort(key=lambda e: (e.time, e.seq, e.kind, e.switch or ""))
    return events


def run_control_loop(network, controller, *, intervals: int, delta_t: float,
                     on_interval: Optional[Callable[[int, float, Dict], None]] = None,
                     chaos=None) -> LoopResult:
    """Drive a controller against a simulator for ``intervals`` tunings.

    Parameters
    ----------
    network:
        Anything with ``advance(dt)``, ``queue_stats()``, ``set_ecn`` and
        ``now`` — the packet, fluid and sharded fat-tree simulators all
        qualify, so one loop drives every substrate (and every fabric
        scale) unchanged.
    controller:
        Anything implementing :class:`repro.core.controller.Controller`.
    on_interval:
        Optional callback ``(interval_index, now, stats)`` for harness
        instrumentation (pattern switches, failure injection, probes).
    chaos:
        Optional :class:`repro.resilience.faults.ChaosInjector` — its
        ``tick`` runs at each interval boundary, and ``filter_stats``
        poisons the telemetry *the controller sees* (metrics and
        ``on_interval`` keep observing the network's ground truth).  The
        injected/handled fault events land in :attr:`LoopResult.faults`.
    """
    return drive(network, [(network, controller, on_interval)],
                 intervals=intervals, delta_t=delta_t, chaos=chaos)[0]


def drive(stepper, replicas: Sequence[Tuple], *, intervals: int,
          delta_t: float, chaos=None) -> List[LoopResult]:
    """The control-loop tick, over the replicas one ``advance`` moves.

    ``replicas`` holds ``(network, controller, on_interval)`` triples and
    ``stepper`` advances all their networks: the network itself for one
    replica, or the :class:`~repro.netsim.batchfluid.BatchFluidNetwork`
    whose views they are.  After each ``advance`` every replica in turn
    reads its statistics, lets its controller decide and runs its
    ``on_interval``, with the same arithmetic for any R, so a replica's
    :class:`LoopResult` is bit-identical to its solo run.
    """
    if intervals <= 0:
        raise ValueError("intervals must be positive")
    tr = get_tracer()
    reg = get_registry()
    traces: List[List[float]] = [[] for _ in replicas]
    qlens: List[Dict[str, List[float]]] = [{} for _ in replicas]
    for i in range(intervals):
        with tr.span("loop.tick", interval=i, now=stepper.now):
            if chaos is not None:
                chaos.tick(stepper.now)
            with tr.span("net.advance", interval=i):
                stepper.advance(delta_t)
            for (net, controller, on_interval), trace, qlen in zip(
                    replicas, traces, qlens):
                with tr.span("net.queue_stats", interval=i):
                    stats = net.queue_stats()
                seen = (stats if chaos is None
                        else chaos.filter_stats(stats, net.now))
                with tr.span("controller.decide", interval=i):
                    controller.decide(seen, net.now, net)
                util = [st.utilization for st in stats.values()]
                mean_util = float(np.mean(util)) if util else 0.0
                trace.append(mean_util)
                for name, st in stats.items():
                    qlen.setdefault(name, []).append(st.avg_qlen_bytes)
                if reg:
                    reg.inc("loop.intervals")
                    reg.observe("loop.mean_utilization", mean_util)
                if on_interval is not None:
                    on_interval(i, net.now, stats)
    return [LoopResult(intervals=intervals, mean_reward=float(np.mean(trace)),
                       rewards_per_switch={k: float(np.mean(v))
                                           for k, v in qlen.items()},
                       reward_trace=trace,
                       faults=_collect_faults(controller, chaos))
            for (_net, controller, _cb), trace, qlen in zip(
                replicas, traces, qlens)]


def lockstep_groups(nets: Sequence, horizons: Sequence
                    ) -> List[Tuple[object, List[int]]]:
    """Group networks into the steppers :func:`drive` advances.

    Every group of ≥2 solo fluid networks
    (:class:`~repro.netsim.fluid.FluidNetwork`) that share ``horizons[k]``
    (the Δt and interval counts they run for), their fabric config and
    their virtual time steps as one
    :class:`~repro.netsim.batchfluid.BatchFluidNetwork` — what
    :meth:`~repro.netsim.batchfluid.BatchFluidNetwork.from_networks`
    accepts, seeds, ECN rows, traffic and faults free to differ.  Any
    other network (packet, fat-tree, its own horizon, a lone job) steps
    alone.  Returns ``(stepper, indices)`` per group, in order of each
    group's first member.
    """
    groups: Dict[object, List[int]] = {}
    for k, (net, horizon) in enumerate(zip(nets, horizons)):
        key: object = k                     # steps alone
        if isinstance(net, FluidNetwork) and net._batch is None:
            # each replica keeps its own ECN rows and flow capacity; the
            # clocks must match bit for bit, as from_networks demands
            shared = replace(net.config, default_ecn=SECN1,
                             initial_flow_capacity=1)
            key = (fingerprint(shared), net.now, horizon)
        groups.setdefault(key, []).append(k)
    return [(BatchFluidNetwork.from_networks([nets[k] for k in g])
             if len(g) > 1 else nets[g[0]], g) for g in groups.values()]


def _resolve_config(config: Optional[PETConfig],
                    seed: Optional[int]) -> PETConfig:
    """Build/patch the training config, deriving a seed when none given.

    A seed-less training call inside an engine task adopts the task's
    spawn-key-derived seed (:func:`repro.parallel.seeding.current_task_seed`)
    instead of leaving ``seed=None`` — which would cascade into the
    shared ``default_rng(0)`` fallbacks and silently correlate every
    forked worker.  Outside an engine task, behaviour is unchanged.
    """
    if seed is None:
        seed = current_task_seed()
    if config is None:
        return PETConfig(seed=seed)
    if config.seed is None and seed is not None:
        return replace(config, seed=seed)
    return config


# --------------------------------------------------------------- pretraining
@dataclass
class _Trainee:
    """One controller's offline run inside :func:`_train`."""

    make_network: Callable[[], object]
    config: PETConfig
    #: builds the trained controller from the network's switch names and
    #: ``config``: PET by default, ACC for its offline pretraining
    make_controller: Callable[[List[str], PETConfig], object] = PETController
    #: first restores the newest intact checkpoint, then saves new ones
    checkpoints: Optional[CheckpointManager] = None
    controller: Optional[object] = None
    done_intervals: int = 0

    def checkpointer(self, base: int, every: int) -> Optional[Callable]:
        if self.checkpoints is None:
            return None
        ckpt, controller = self.checkpoints, self.controller

        def on_interval(i: int, now: float, stats: Dict) -> None:
            if (i + 1) % every == 0:
                ckpt.save(controller.state_dict(), base + i + 1)
        return on_interval


def _train(trainees: List[_Trainee], *, episodes: int,
           intervals_per_episode: int,
           checkpoint_every: int = 500) -> List[_Trainee]:
    """The one offline episode loop, over any number of trainees.

    Each episode every trainee gets a fresh network; the networks that
    :func:`lockstep_groups` can batch step together.  Fills each
    trainee's ``controller``.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    tr = get_tracer()
    nets = []
    for t in trainees:
        nets.append(t.make_network())
        t.controller = t.make_controller(nets[-1].switch_names(), t.config)
        t.controller.set_training(True)
        if t.checkpoints is not None:
            resumed_step = t.checkpoints.restore_into(t.controller)
            if resumed_step is not None:
                t.controller.advance_exploration(resumed_step)
                t.done_intervals = resumed_step
    delta_ts = [t.config.delta_t for t in trainees]
    for ep in range(episodes):
        if ep > 0:
            for k, t in enumerate(trainees):
                nets[k] = t.make_network()
                t.controller.reset_episode()
        replicas = []
        for k, t in enumerate(trainees):
            get_registry().inc("train.episodes")
            tr.event("train.episode", episode=ep,
                     intervals=intervals_per_episode)
            base = t.done_intervals + ep * intervals_per_episode
            replicas.append((nets[k], t.controller,
                             t.checkpointer(base, checkpoint_every)))
        for stepper, group in lockstep_groups(nets, delta_ts):
            drive(stepper, [replicas[k] for k in group],
                  intervals=intervals_per_episode, delta_t=delta_ts[group[0]])
    for t in trainees:
        if t.checkpoints is not None:
            t.checkpoints.save(t.controller.state_dict(), t.done_intervals
                               + episodes * intervals_per_episode)
    return trainees


def pretrain_offline_multi(make_network: Callable[[], object],
                           config: Optional[PETConfig] = None, *,
                           episodes: int = 1, intervals_per_episode: int = 1000,
                           seed: Optional[int] = None,
                           checkpoints: Optional["CheckpointManager"] = None,
                           checkpoint_every: int = 500) -> Dict:
    """Offline phase exporting the full per-switch model set.

    When the deployment fabric is the training fabric (every benchmark in
    this repo), carrying each switch's own offline-trained model over is
    strictly better than broadcasting one: leaf and spine agents see very
    different observation distributions.  Returns
    ``{"switches": {...state per switch...}}`` for
    :meth:`PETController.load_state_dict`.

    With a :class:`repro.rl.checkpoint.CheckpointManager`, training is
    crash-safe: model state is checkpointed every ``checkpoint_every``
    intervals (and at each episode end), and a fresh call first resumes
    weights + exploration decay from the newest *uncorrupted* rotation
    (damaged files are skipped automatically).  The simulator timeline
    restarts — only learning state survives a crash.

    When called without a seed inside a :class:`repro.parallel.Engine`
    task, the task's spawn-key-derived seed is adopted (see
    :func:`_resolve_config`).
    """
    if checkpoints is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    (t,) = _train([_Trainee(make_network, _resolve_config(config, seed),
                            checkpoints=checkpoints)],
                  episodes=episodes,
                  intervals_per_episode=intervals_per_episode,
                  checkpoint_every=checkpoint_every)
    return t.controller.state_dict()
