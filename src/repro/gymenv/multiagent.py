"""Multi-agent Gym-style environment: one agent per switch (DTDE).

Observations, rewards and dones are per-switch dictionaries; actions are
a dict ``{switch: action_id}``.  This is the exact interface PET's IPPO
training consumes, factored out so any learner (including third-party
ones) can train against the simulator without PET's controller plumbing.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.action import ActionCodec
from repro.core.observer import FleetObserver
from repro.gymenv.env import EnvConfig, default_network
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

__all__ = ["MultiAgentDCNEnv"]


class MultiAgentDCNEnv:
    """Per-switch dict-style environment."""

    def __init__(self, config: Optional[EnvConfig] = None,
                 network_factory: Optional[Callable[[], object]] = None) -> None:
        self.config = config or EnvConfig()
        if self.config.pet.sanitize:
            from repro.devtools import sanitize as _sanitize
            _sanitize.enable()
        self._factory = network_factory or (
            lambda: default_network(self.config, self._episode))
        self._episode = 0
        self.codec = ActionCodec.from_config(self.config.pet)
        self.net = None
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
        self.agents = self.net.switch_names()
        self.observer = FleetObserver(self.agents, self.config.pet)
        self._t = 0
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
            return obs, rewards, dones, info
