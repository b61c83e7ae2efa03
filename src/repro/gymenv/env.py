"""Gym-style DCN environments: one agent per switch, or one switch.

:class:`MultiAgentDCNEnv` is the environment: every switch is an agent
(DTDE), with per-switch observation, reward and done dicts and an
action dict ``{switch: action_id}`` — the interface PET's IPPO training
consumes, so any learner can train against the simulator without PET's
controller plumbing.  :class:`DCNEnv` is its one-switch view: one
designated switch is agent-controlled, every other switch keeps the
default static ECN, and the dicts unwrap to classic Gym's ``obs =
env.reset()``, ``obs, reward, done, info = env.step(action)``.

Observations are PET's normalized six-factor state stacked over the
history window; actions index the
:class:`~repro.core.action.ActionCodec`; the reward is paper Eq. 6.  ECN
tuning is a continuing task with no terminal states, so every episode
end is a *time-limit truncation*: ``done`` goes True at the horizon and
``info["TimeLimit.truncated"]`` is set (Gym's ``TimeLimit`` wrapper
convention) so learners bootstrap ``V(s_T)`` instead of treating the
cut-off as absorbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.action import ActionCodec
from repro.core.config import PETConfig
from repro.core.observer import FleetObserver
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.traffic.generator import PoissonTrafficGenerator, TrafficConfig
from repro.traffic.workloads import workload_by_name

__all__ = ["EnvConfig", "MultiAgentDCNEnv", "DCNEnv", "default_network"]


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


class MultiAgentDCNEnv:
    """Per-switch dict-style environment."""

    def __init__(self, config: Optional[EnvConfig] = None,
                 network_factory: Optional[Callable[[], object]] = None) -> None:
        self.config = config or EnvConfig()
        self._factory = network_factory or (
            lambda: default_network(self.config, self._episode))
        self._episode = 0
        self.codec = ActionCodec.from_config(self.config.pet)
        self.net = None
        #: picks the acting switches of each episode's fabric: every
        #: switch here, the one tuned switch under :class:`DCNEnv`
        self.agents_of: Callable[[object], List[str]] = (
            lambda net: net.switch_names())
        self.agents: list = []
        self.observer: Optional[FleetObserver] = None
        self._t = 0

    @property
    def n_actions(self) -> int:
        return self.codec.n_actions

    @property
    def obs_dim(self) -> int:
        return self.config.pet.history_k * self.config.pet.n_state_features

    def reset(self) -> Dict[str, np.ndarray]:
        self.net = self._factory()
        self._episode += 1
        self.agents = self.agents_of(self.net)
        self.observer = FleetObserver(self.agents, self.config.pet)
        self._t = 0
        # prime the first observation with one idle interval
        self.net.advance(self.config.pet.delta_t)
        return self._observe()

    def _observe(self) -> Dict[str, np.ndarray]:
        self._last_stats = self.net.queue_stats()
        self._seen = self.observer.observe(self._last_stats)
        return dict(zip(self._seen.switches, self._seen.obs))

    def step(self, actions: Dict[str, int]
             ) -> Tuple[Dict[str, np.ndarray], Dict[str, float],
                        Dict[str, bool], Dict]:
        if self.net is None:
            raise RuntimeError("call reset() before step()")
        with get_tracer().span("env.step", t=self._t,
                               agents=len(self.agents)):
            for s, a in actions.items():
                self.net.set_ecn(s, self.codec.decode(int(a)))
            self.net.advance(self.config.pet.delta_t)
            obs = self._observe()
            rewards = dict(zip(self._seen.switches,
                               self._seen.reward.tolist()))
            self._t += 1
            # Horizon reached = time-limit truncation for every agent
            # simultaneously (no terminal states in ECN tuning).
            truncated = self._t >= self.config.episode_intervals
            dones = {s: truncated for s in self.agents}
            info = {"now": self.net.now,
                    "TimeLimit.truncated": truncated,
                    "mean_utilization": float(np.mean(
                        [st.utilization for st in self._last_stats.values()]))}
            reg = get_registry()
            if reg:
                reg.inc("env.steps")
                for r in rewards.values():
                    reg.observe("env.reward", r)
            return obs, rewards, dones, info


class DCNEnv:
    """Gym-style wrapper: one agent, one tuned switch.

    The one-switch view of :class:`MultiAgentDCNEnv`: ``fleet`` is a
    fleet env whose only agent is ``agent_switch`` (the fabric's first
    switch when unset), and :meth:`reset` and :meth:`step` unwrap its
    dicts.
    """

    def __init__(self, config: Optional[EnvConfig] = None,
                 network_factory: Optional[Callable[[], object]] = None) -> None:
        self.fleet = MultiAgentDCNEnv(config, network_factory)
        self.fleet.agents_of = self._agents_of
        self.config, self.codec = self.fleet.config, self.fleet.codec
        self.agent_switch = self.config.agent_switch

    def _agents_of(self, net) -> List[str]:
        if self.agent_switch is None:
            self.agent_switch = net.switch_names()[0]
        return [self.agent_switch]

    @property
    def net(self):
        return self.fleet.net

    @property
    def n_actions(self) -> int:
        return self.fleet.n_actions

    @property
    def obs_dim(self) -> int:
        return self.fleet.obs_dim

    def reset(self) -> np.ndarray:
        return self.fleet.reset()[self.agent_switch]

    def step(self, action: int) -> Tuple[np.ndarray, float, bool, Dict]:
        s = self.agent_switch
        obs, rewards, dones, info = self.fleet.step({s: action})
        stats = self.fleet._last_stats[s]
        return obs[s], rewards[s], dones[s], {
            "utilization": stats.utilization,
            "avg_qlen_bytes": stats.avg_qlen_bytes,
            "ecn": self.codec.decode(int(action)), "now": info["now"],
            "TimeLimit.truncated": info["TimeLimit.truncated"]}
