"""Scenario assembly shared by the benchmarks and examples.

``run_scenario`` builds a traffic-loaded simulator, attaches one of the
paper's schemes, runs the Δt control loop, and returns the quantities
the paper's evaluation reports (normalized FCT buckets, queue-length
statistics, latency, utilization, and — for ACC — the global-replay
overhead meters).

The default substrate is the fluid model (DESIGN.md §2) on a
64-host fabric; pass ``simulator="packet"`` for packet-level runs
(slower, smaller horizons) or ``simulator="fluid_shard"`` for the
spatially-sharded multi-pod fat-tree (docs/TOPOLOGIES.md).  Learning
schemes are offline pre-trained on an identically-distributed training
run before the measured run, exactly the paper's hybrid offline+online
regime (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.analysis.fct import FCTStats, fct_statistics
from repro.analysis.queues import (QueueLengthStats, latency_statistics,
                                   queue_length_statistics)
from repro.baselines.acc import ACCConfig, ACCController
from repro.baselines.dynamic_ecn import AMTController, QAECNController
from repro.baselines.static_ecn import secn1, secn2
from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.core.training import (drive, lockstep_groups,
                                 pretrain_offline_multi, run_control_loop)
from repro.fingerprint import fingerprint
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.network import PacketNetwork
from repro.netsim.shard import ShardedFluidNetwork
from repro.netsim.topology import TopologyConfig
from repro.obs.trace import get_tracer
from repro.traffic.generator import PoissonTrafficGenerator, TrafficConfig
from repro.traffic.incast import IncastConfig, IncastGenerator
from repro.traffic.workloads import workload_by_name

__all__ = ["ScenarioConfig", "ExperimentResult", "build_scheme",
           "run_scenario", "run_scenario_grid", "SCHEMES"]

SCHEMES = ("pet", "pet_ablated", "acc", "secn1", "secn2", "amt", "qaecn")


@dataclass
class ScenarioConfig:
    """One evaluation scenario."""

    workload: str = "websearch"
    load: float = 0.6
    duration: float = 0.25
    simulator: str = "fluid"            # "fluid" | "packet" | "fluid_shard"
    delta_t: float = 1e-3
    seed: int = 0
    # incast overlay (the paper's many-to-one extension)
    incast: bool = True
    incast_fan_in: int = 12
    incast_period: float = 20e-3
    incast_bytes: int = 50_000
    # learning
    pretrain_intervals: int = 1500
    online_training: bool = True
    # fluid fabric (benchmark scale; see DESIGN.md for the scaling note)
    fluid: FluidConfig = field(default_factory=lambda: FluidConfig(
        n_spine=2, n_leaf=4, hosts_per_leaf=8,
        host_rate_bps=10e9, spine_rate_bps=40e9))
    # packet fabric
    packet: TopologyConfig = field(default_factory=TopologyConfig)
    # fat-tree fabric (docs/TOPOLOGIES.md)
    fattree: FatTreeConfig = field(default_factory=FatTreeConfig)

    def __post_init__(self) -> None:
        if self.simulator not in ("fluid", "packet", "fluid_shard"):
            raise ValueError(
                "simulator must be 'fluid', 'packet' or 'fluid_shard'")
        workload_by_name(self.workload)     # validate

    @property
    def host_rate_bps(self) -> float:
        if self.simulator == "packet":
            return self.packet.host_rate_bps
        if self.simulator == "fluid_shard":
            return self.fattree.host_rate_bps
        return self.fluid.host_rate_bps

    @property
    def base_rtt(self) -> float:
        if self.simulator == "packet":
            return self.packet.base_rtt()
        if self.simulator == "fluid_shard":
            return self.fattree.base_rtt
        return self.fluid.base_rtt


@dataclass
class ExperimentResult:
    """Everything one scenario run produces."""

    scheme: str
    scenario: ScenarioConfig
    fct: Dict[str, FCTStats]
    queue: QueueLengthStats
    latency: Dict[str, float]
    mean_utilization: float
    flows_finished: int
    flows_total: int
    queue_samples: List[float] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    def summary_row(self) -> Dict[str, float]:
        """Flat row for the report tables."""
        return {
            "overall_avg_fct": self.fct["overall"].avg,
            "mice_avg_fct": self.fct["mice"].avg,
            "mice_p99_fct": self.fct["mice"].p99,
            "elephant_avg_fct": self.fct["elephant"].avg,
            "queue_mean_kb": self.queue.mean_kb,
            "queue_std_kb": self.queue.std_kb,
            "latency_avg": self.latency["avg"],
            "utilization": self.mean_utilization,
        }


# --------------------------------------------------------------- networks
def _make_network(cfg: ScenarioConfig, seed: int):
    if cfg.simulator == "fluid":
        return FluidNetwork(cfg.fluid, seed=seed)
    if cfg.simulator == "fluid_shard":
        return ShardedFluidNetwork(cfg.fattree, seed=seed)
    return PacketNetwork(cfg.packet, seed=seed)


def _load_traffic(net, cfg: ScenarioConfig, seed: int,
                  duration: Optional[float] = None) -> int:
    """Inject background + incast flows; returns the flow count."""
    duration = duration if duration is not None else cfg.duration
    rng = np.random.default_rng(seed)
    hosts = net.host_names()
    gen = PoissonTrafficGenerator(hosts, workload_by_name(cfg.workload), rng=rng)
    flows = gen.generate(TrafficConfig(load=cfg.load, duration=duration,
                                       host_rate_bps=cfg.host_rate_bps,
                                       start_time=0.0))
    if cfg.incast:
        inc = IncastGenerator(hosts, rng=rng, first_flow_id=gen.next_flow_id())
        flows.extend(inc.generate(IncastConfig(
            fan_in=cfg.incast_fan_in, response_bytes=cfg.incast_bytes,
            period=cfg.incast_period, duration=duration)))
    net.start_flows(flows)
    return len(flows)


# --------------------------------------------------------------- schemes
def build_scheme(name: str, switch_names: List[str], *,
                 pet_config: Optional[PETConfig] = None,
                 seed: Optional[int] = None):
    """Instantiate a controller by its paper name."""
    key = name.lower()
    base = pet_config or PETConfig(seed=seed)
    if base.seed is None and seed is not None:
        base = replace(base, seed=seed)
    if key == "pet":
        return PETController(switch_names, base)
    if key == "pet_ablated":
        # Fig. 9's "without incast & M/E ratio" arm: PET minus the two
        # category-2 state features.
        return PETController(switch_names, replace(
            base, use_incast=False, use_flow_ratio=False))
    if key == "acc":
        # DDQN profile scaled like PETConfig.fast(): the training budget is
        # a few thousand intervals, so epsilon must decay within it.
        return ACCController(switch_names, ACCConfig(
            base=base, seed=base.seed, lr=2e-3, train_every=2,
            eps_decay_steps=1000, eps_end=0.01))
    if key == "secn1":
        return secn1()
    if key == "secn2":
        return secn2()
    if key == "amt":
        return AMTController()
    if key == "qaecn":
        return QAECNController()
    raise ValueError(f"unknown scheme {name!r}; choose from {SCHEMES}")


def _default_pet_config(cfg: ScenarioConfig) -> PETConfig:
    """Workload-appropriate reward weights (paper §5.2) on the fast
    training profile (scaled to this repo's short simulations)."""
    beta = (0.7, 0.3) if cfg.workload == "datamining" else (0.3, 0.7)
    return PETConfig.fast(beta1=beta[0], beta2=beta[1],
                          delta_t=cfg.delta_t, seed=cfg.seed)


# --------------------------------------------------------------- pretraining
#: in-process cache of offline-pretrained models, keyed by everything
#: that affects the training run.
_PRETRAIN_CACHE: Dict[str, object] = {}


def _pretrain_key(scheme: str, cfg: ScenarioConfig, pet_cfg: PETConfig) -> str:
    """Digest of everything the training run reads: the fabric, the
    traffic, its length and Δt, the seed and the learning config (the
    sanitizer only checks, so it is left out)."""
    fabric = {"fluid": cfg.fluid, "fluid_shard": cfg.fattree,
              "packet": cfg.packet}[cfg.simulator]
    return fingerprint((scheme, cfg.simulator, fabric, cfg.workload, cfg.load,
                        cfg.incast, cfg.incast_fan_in, cfg.incast_period,
                        cfg.incast_bytes, cfg.pretrain_intervals, cfg.delta_t,
                        cfg.seed, replace(pet_cfg, sanitize=False)))


def clear_pretrain_cache() -> None:
    """Drop all cached offline-pretrained models (test isolation hook)."""
    _PRETRAIN_CACHE.clear()


def _train_network_factory(cfg: ScenarioConfig):
    train_duration = cfg.pretrain_intervals * cfg.delta_t
    def make_train_net():
        tn = _make_network(cfg, cfg.seed + 101)
        _load_traffic(tn, cfg, cfg.seed + 102, duration=train_duration)
        return tn
    return make_train_net


def _cached_pretrain(scheme: str, cfg: ScenarioConfig,
                     train_cfg: PETConfig) -> Dict:
    key = _pretrain_key(scheme, cfg, train_cfg)
    if key not in _PRETRAIN_CACHE:
        _PRETRAIN_CACHE[key] = pretrain_offline_multi(
            _train_network_factory(cfg), train_cfg, episodes=1,
            intervals_per_episode=cfg.pretrain_intervals, seed=cfg.seed)
    return _PRETRAIN_CACHE[key]


def _cached_pretrain_acc(cfg: ScenarioConfig, controller: ACCController,
                         base_pet: PETConfig) -> Dict:
    key = _pretrain_key("acc", cfg, base_pet)
    if key not in _PRETRAIN_CACHE:
        tn = _train_network_factory(cfg)()
        # The offline trainee runs DDQN's own defaults (eps 1.0 -> 0.05
        # over 2000 steps): high exploration while off the production
        # network.  The deployed controller (build_scheme) then continues
        # online with a low exploration floor — the same offline-explore /
        # online-exploit split PET uses.
        trainee = ACCController(tn.switch_names(),
                                ACCConfig(base=base_pet, seed=base_pet.seed))
        trainee.set_training(True)
        run_control_loop(tn, trainee, intervals=cfg.pretrain_intervals,
                         delta_t=cfg.delta_t)
        _PRETRAIN_CACHE[key] = trainee.state_dict()
    return _PRETRAIN_CACHE[key]


# --------------------------------------------------------------- runner
@dataclass
class _PreparedScenario:
    """A scenario after setup (network, traffic, pretrained controller),
    before the measured run — one replica of :func:`_measure`."""

    scheme: str
    cfg: ScenarioConfig
    net: object
    controller: object
    n_flows: int
    intervals: int
    on_interval: Optional[Callable] = None
    queue_samples: List[float] = field(default_factory=list)
    utils: List[float] = field(default_factory=list)

    @property
    def drain(self) -> int:
        return max(int(0.2 * self.intervals), 10)

    def collect(self, i: int, now: float, stats: Dict) -> None:
        """The per-interval sampler of the measured run."""
        for st in stats.values():
            self.queue_samples.append(st.avg_qlen_bytes)
        u = [st.utilization for st in stats.values()]
        self.utils.append(float(np.mean(u)) if u else 0.0)
        if self.on_interval is not None:
            self.on_interval(i, now, stats)


def _setup_scenario(scheme: str, cfg: Optional[ScenarioConfig] = None, *,
                    pet_config: Optional[PETConfig] = None,
                    network=None) -> _PreparedScenario:
    """Build the traffic-loaded simulator and the (pretrained) scheme."""
    cfg = cfg or ScenarioConfig()
    base_pet = pet_config or _default_pet_config(cfg)
    base_pet = replace(base_pet, delta_t=cfg.delta_t)

    own_network = network is None
    if own_network:
        net = _make_network(cfg, cfg.seed)
        n_flows = _load_traffic(net, cfg, cfg.seed + 1)
    else:
        net = network
        n_flows = len(net.flows)

    controller = build_scheme(scheme, net.switch_names(),
                              pet_config=base_pet, seed=cfg.seed)

    # ---- offline pre-training on an identically distributed run ----------
    # Pre-trained states are cached in-process so a benchmark sweep does
    # not retrain per load point (the paper likewise deploys ONE offline
    # pre-trained initial model, §4.4.1).
    tr = get_tracer()
    if scheme in ("pet", "pet_ablated") and cfg.pretrain_intervals > 0:
        with tr.span("scenario.pretrain", scheme=scheme,
                     intervals=cfg.pretrain_intervals):
            state = _cached_pretrain(scheme, cfg, controller.config)
        controller.load_state_dict(state)
        controller.advance_exploration(cfg.pretrain_intervals)
        controller.reset_episode()
    elif scheme == "acc" and cfg.pretrain_intervals > 0:
        # ACC trains online from scratch in its paper; give it the same
        # interval budget on the training run for a fair comparison.
        with tr.span("scenario.pretrain", scheme=scheme,
                     intervals=cfg.pretrain_intervals):
            state = _cached_pretrain_acc(cfg, controller, base_pet)
        controller.load_state_dict(state)
        controller.advance_exploration(cfg.pretrain_intervals)

    controller.set_training(cfg.online_training)
    intervals = max(int(round(cfg.duration / cfg.delta_t)), 1)
    return _PreparedScenario(scheme=scheme, cfg=cfg, net=net,
                             controller=controller, n_flows=n_flows,
                             intervals=intervals)


def _finalize_scenario(prep: _PreparedScenario) -> ExperimentResult:
    """Collect the paper metrics after the measured run + drain."""
    cfg, net = prep.cfg, prep.net
    fct = fct_statistics(net.finished_flows, cfg.host_rate_bps, cfg.base_rtt)
    queue = queue_length_statistics(prep.queue_samples)
    lat = latency_statistics(net.latencies)
    extra: Dict[str, float] = {}
    if isinstance(prep.controller, ACCController):
        extra.update(prep.controller.overhead_report())
    return ExperimentResult(
        scheme=prep.scheme, scenario=cfg, fct=fct, queue=queue, latency=lat,
        mean_utilization=float(np.mean(prep.utils)) if prep.utils else 0.0,
        flows_finished=len(net.finished_flows), flows_total=prep.n_flows,
        queue_samples=prep.queue_samples, extra=extra)


def _measure(preps: List[_PreparedScenario]) -> List[ExperimentResult]:
    """The measured run plus drain of every prepared job, in job order.

    Jobs whose networks :func:`repro.core.training.lockstep_groups` can
    batch (solo fluid networks of one fabric, Δt and horizon) step as one
    :class:`repro.netsim.batchfluid.BatchFluidNetwork`; every other job
    runs solo.  Either way each job's result is bit-identical to its solo
    run.
    """
    tr = get_tracer()
    horizons = [(p.cfg.delta_t, p.intervals) for p in preps]
    for stepper, group in lockstep_groups([p.net for p in preps], horizons):
        jobs = [preps[k] for k in group]
        first = jobs[0]
        with tr.span("scenario.measure", scheme=first.scheme, jobs=len(jobs),
                     intervals=first.intervals):
            drive(stepper, [(p.net, p.controller, p.collect) for p in jobs],
                  intervals=first.intervals, delta_t=first.cfg.delta_t)
            # drain: let in-flight flows finish without new arrivals
            drive(stepper, [(p.net, p.controller, None) for p in jobs],
                  intervals=first.drain, delta_t=first.cfg.delta_t)
    return [_finalize_scenario(p) for p in preps]


def run_scenario(scheme: str, cfg: Optional[ScenarioConfig] = None, *,
                 pet_config: Optional[PETConfig] = None,
                 on_interval: Optional[Callable] = None,
                 network=None) -> ExperimentResult:
    """Run one scheme through one scenario and collect the paper metrics.

    Parameters
    ----------
    scheme:
        One of :data:`SCHEMES`.
    cfg:
        Scenario; defaults to 60%-load Web Search on the fluid fabric.
    pet_config:
        Override the learning configuration (ablation benches use this).
    on_interval:
        Extra per-interval callback (pattern switches, failure injection).
    network:
        Pre-built simulator (with traffic already loaded) to use instead
        of the scenario's default; the caller owns its traffic in that
        case.
    """
    prep = _setup_scenario(scheme, cfg, pet_config=pet_config,
                           network=network)
    prep.on_interval = on_interval
    return _measure([prep])[0]


# --------------------------------------------------------------- grid fan-out
def run_scenario_grid(jobs: List, *, workers: int = 1,
                      engine=None, sim_batch: bool = True
                      ) -> List[ExperimentResult]:
    """Run many independent ``(scheme, ScenarioConfig)`` jobs; results
    come back in job order, each bit-identical to ``run_scenario``.

    The figure-matrix analogue of :func:`repro.analysis.sweep.run_sweep`.
    With ``workers=1`` and no ``engine`` the jobs run in this process:
    set up in job order (sharing the pretraining cache), then measured by
    :func:`_measure`, which steps compatible fluid jobs as one batch.  A
    failing job raises its own exception.  Otherwise each job is one
    :class:`repro.parallel.TaskSpec` of ``engine`` (default: an
    :class:`repro.parallel.Engine` of ``workers`` processes); each worker
    pays its own pretraining, a job whose worker dies is retried once,
    and failures surface as :class:`repro.parallel.TaskFailedError`.

    ``sim_batch`` has one legal value, ``True``: batching follows from
    the jobs themselves.
    """
    if not sim_batch:
        raise ValueError("sim_batch=True is the only legal value; "
                         "compatible fluid jobs batch on their own")
    if workers == 1 and engine is None:
        return _measure([_setup_scenario(scheme, cfg) for scheme, cfg in jobs])
    from repro.parallel.engine import Engine, TaskSpec
    eng = engine if engine is not None else Engine(workers=workers)
    specs = [TaskSpec(task_id=i, fn=run_scenario, args=(scheme, cfg))
             for i, (scheme, cfg) in enumerate(jobs)]
    return eng.run(specs).values()
