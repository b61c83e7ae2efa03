"""ACC — the learning-based baseline (Yan et al., SIGCOMM 2021).

ACC attaches a Double-DQN agent to every switch, observing only the
*basic* statistics (queue length, output rate, marked-output rate,
current ECN threshold — no incast degree, no mice/elephant ratio) and
sharing one **global experience replay** across agents: each transition
an agent stores is broadcast to its peers, and every agent's TD updates
sample from the union.  PET's critique — the memory and bandwidth cost
of that pool — is metered by
:class:`repro.rl.replay.GlobalReplayBuffer` and surfaced through
:meth:`ACCController.overhead_report`.

State, action and reward reuse PET's machinery with the incast and
flow-ratio features force-masked (``use_incast=use_flow_ratio=False``),
which makes the Fig. 9 ablation an exact interpolation between the two
schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.action import ActionCodec
from repro.core.config import PETConfig
from repro.core.ecn_cm import ECNConfigModule
from repro.core.observer import FleetObserver
from repro.netsim.ecn import ECNConfig
from repro.netsim.network import QueueStats
from repro.rl.ddqn import DDQNAgent, DDQNConfig
from repro.rl.replay import GlobalReplayBuffer

__all__ = ["ACCConfig", "ACCController"]


@dataclass
class ACCConfig:
    """ACC hyperparameters, layered over a PET-style base config."""

    base: PETConfig = None                     # type: ignore[assignment]
    replay_capacity: int = 20_000
    lr: float = 1e-3
    batch_size: int = 64
    target_sync_interval: int = 100
    train_every: int = 1                       # DDQN updates per interval
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 2_000
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.base is None:
            self.base = PETConfig()
        # ACC does not observe incast or the flow ratio.
        self.base = replace(self.base, use_incast=False, use_flow_ratio=False)


class ACCController:
    """Multi-agent DDQN ECN tuner with global experience replay."""

    def __init__(self, switch_names: List[str],
                 config: Optional[ACCConfig] = None) -> None:
        if not switch_names:
            raise ValueError("need at least one switch")
        self.config = config or ACCConfig()
        base = self.config.base
        self.switches = list(switch_names)
        self.codec = ActionCodec.from_config(base)
        self.observer = FleetObserver(self.switches, base)
        self.ecn_cm = {s: ECNConfigModule(s, self.codec, base.delta_t)
                       for s in self.switches}
        rng = np.random.default_rng(self.config.seed)
        self.global_replay = GlobalReplayBuffer(self.config.replay_capacity,
                                                self.switches, rng=rng)
        obs_dim = base.history_k * base.n_state_features
        self.agents: Dict[str, DDQNAgent] = {}
        for i, s in enumerate(self.switches):
            seed = None if self.config.seed is None else self.config.seed + i
            dcfg = DDQNConfig(obs_dim=obs_dim, n_actions=self.codec.n_actions,
                              lr=self.config.lr, gamma=base.gamma,
                              batch_size=self.config.batch_size,
                              target_sync_interval=self.config.target_sync_interval,
                              eps_start=self.config.eps_start,
                              eps_end=self.config.eps_end,
                              eps_decay_steps=self.config.eps_decay_steps,
                              seed=seed)
            self.agents[s] = DDQNAgent(dcfg)
        self.training = True
        #: (observation, action) of each switch's decision awaiting reward
        self._pending: Dict[str, Tuple[np.ndarray, int]] = {}
        self._reward_log = self.observer.reward_log

    # -- Controller interface ------------------------------------------------
    def set_training(self, training: bool) -> None:
        self.training = training

    def decide(self, stats: Dict[str, QueueStats], now: float,
               network) -> Dict[str, ECNConfig]:
        seen = self.observer.observe(stats)
        obs_now = dict(zip(seen.switches, seen.obs))

        if self.training:
            # Complete pending transitions into the *global* pool …
            rewards = dict(zip(seen.switches, seen.reward.tolist()))
            for s, (obs, action) in self._pending.items():
                if s in obs_now:
                    self.global_replay.add(s, obs, action, rewards[s],
                                           obs_now[s], False)
            # … and let every agent sample TD updates from the union.
            for _ in range(self.config.train_every):
                for s in self.switches:
                    self.agents[s].train_step(self.global_replay.buffer)

        applied: Dict[str, ECNConfig] = {}
        for s, obs in obs_now.items():
            a = self.agents[s].act(obs, greedy=not self.training)
            self._pending[s] = (obs, a)
            cfgd = self.ecn_cm[s].apply(a, now, network)
            if cfgd is not None:
                applied[s] = cfgd
        return applied

    def reset_episode(self) -> None:
        """Clear NCM windows, histories and pending decisions between
        independent episodes."""
        self.observer.clear()
        self._pending.clear()

    # -- overhead metering (the PET-vs-ACC systems argument) -------------------
    def overhead_report(self) -> Dict[str, float]:
        """Bytes exchanged / resident for the global replay."""
        return {
            "replay_entries": float(len(self.global_replay)),
            "replay_resident_bytes": float(self.global_replay.nbytes()),
            "bytes_exchanged_total": float(
                self.global_replay.total_bytes_exchanged()),
            "bytes_exchanged_per_switch": float(
                self.global_replay.total_bytes_exchanged())
                / max(len(self.switches), 1),
        }

    # -- checkpointing ---------------------------------------------------------
    def state_dict(self) -> Dict[str, Dict]:
        return {s: agent.state_dict() for s, agent in self.agents.items()}

    def load_state_dict(self, state: Dict[str, Dict]) -> None:
        for s, st in state.items():
            self.agents[s].load_state_dict(st)

    def advance_exploration(self, steps: int) -> None:
        """Resume epsilon decay from an earlier training phase."""
        for agent in self.agents.values():
            agent.steps += max(steps, 0)

    def mean_recent_reward(self, s: str, window: int = 50) -> float:
        """Mean of the last ``window`` (at most ``REWARD_LOG_LEN``) rewards."""
        return self.observer.mean_recent_reward(s, window)
