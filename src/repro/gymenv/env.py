"""Single-agent Gym-style DCN environment.

One designated switch is agent-controlled; every other switch keeps the
default static ECN.  Observations are PET's normalized six-factor state
stacked over the history window; actions index the
:class:`~repro.core.action.ActionCodec`; the reward is paper Eq. 6.

API shape follows classic Gym: ``obs = env.reset()``,
``obs, reward, done, info = env.step(action)``.  ECN tuning is a
continuing task with no terminal states, so every episode end is a
*time-limit truncation*: ``done`` goes True at the horizon and
``info["TimeLimit.truncated"]`` is set (Gym's ``TimeLimit`` wrapper
convention) so learners bootstrap ``V(s_T)`` instead of treating the
cut-off as absorbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.action import ActionCodec
from repro.core.config import PETConfig
from repro.core.observer import FleetObserver
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.traffic.generator import PoissonTrafficGenerator, TrafficConfig
from repro.traffic.workloads import workload_by_name

__all__ = ["EnvConfig", "DCNEnv", "default_network"]


@dataclass
class EnvConfig:
    """Environment construction parameters."""

    pet: PETConfig = field(default_factory=PETConfig)
    fluid: FluidConfig = field(default_factory=FluidConfig.small)
    workload: str = "websearch"
    load: float = 0.6
    episode_intervals: int = 200
    agent_switch: Optional[str] = None     # default: first leaf
    seed: int = 0


def default_network(config: EnvConfig, episode: int) -> FluidNetwork:
    """The fabric of an env's ``episode``-th reset (from 0): a
    ``config.fluid`` network seeded ``config.seed + episode``, loaded
    with one episode of Poisson ``config.workload`` traffic."""
    net = FluidNetwork(config.fluid, seed=config.seed + episode)
    rng = np.random.default_rng(config.seed + 1000 + episode)
    gen = PoissonTrafficGenerator(net.host_names(),
                                  workload_by_name(config.workload), rng=rng)
    net.start_flows(gen.generate(TrafficConfig(
        load=config.load,
        duration=config.episode_intervals * config.pet.delta_t,
        host_rate_bps=config.fluid.host_rate_bps)))
    return net


class DCNEnv:
    """Gym-style wrapper: one agent, one tuned switch."""

    def __init__(self, config: Optional[EnvConfig] = None,
                 network_factory: Optional[Callable[[], object]] = None) -> None:
        self.config = config or EnvConfig()
        self._factory = network_factory or (
            lambda: default_network(self.config, self._episode))
        cfg = self.config
        if cfg.pet.sanitize:
            from repro.devtools import sanitize as _sanitize
            _sanitize.enable()
        self.codec = ActionCodec.from_config(cfg.pet)
        self.net = None
        self.agent_switch = cfg.agent_switch
        #: NCM → state → history → reward of the one tuned switch
        self.observer: Optional[FleetObserver] = None
        self._t = 0
        self._episode = 0

    # -- spaces -------------------------------------------------------------
    @property
    def n_actions(self) -> int:
        return self.codec.n_actions

    @property
    def obs_dim(self) -> int:
        return self.config.pet.history_k * self.config.pet.n_state_features

    # -- gym API --------------------------------------------------------------
    def reset(self) -> np.ndarray:
        self.net = self._factory()
        self._episode += 1
        if self.agent_switch is None:
            self.agent_switch = self.net.switch_names()[0]
        self.observer = FleetObserver([self.agent_switch], self.config.pet)
        self._t = 0
        # prime the first observation with one idle interval
        self.net.advance(self.config.pet.delta_t)
        return self.observer.observe(self.net.queue_stats()).obs[0]

    def step(self, action: int) -> Tuple[np.ndarray, float, bool, Dict]:
        if self.net is None:
            raise RuntimeError("call reset() before step()")
        with get_tracer().span("env.step", t=self._t):
            return self._step(action)

    def _step(self, action: int) -> Tuple[np.ndarray, float, bool, Dict]:
        ecn = self.codec.decode(int(action))
        self.net.set_ecn(self.agent_switch, ecn)
        self.net.advance(self.config.pet.delta_t)
        stats_all = self.net.queue_stats()
        stats = stats_all[self.agent_switch]
        seen = self.observer.observe(stats_all)
        obs, reward = seen.obs[0], float(seen.reward[0])
        self._t += 1
        # The only episode end is the time horizon — a truncation, not a
        # termination (there is no absorbing state in ECN tuning).
        truncated = self._t >= self.config.episode_intervals
        done = truncated
        info = {"utilization": stats.utilization,
                "avg_qlen_bytes": stats.avg_qlen_bytes,
                "ecn": ecn, "now": self.net.now,
                "TimeLimit.truncated": truncated}
        reg = get_registry()
        if reg:
            reg.inc("env.steps")
            reg.observe("env.reward", reward)
        return obs, reward, done, info
