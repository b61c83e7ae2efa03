"""Double DQN — the learning algorithm of the ACC baseline.

ACC (SIGCOMM 2021) tunes ECN thresholds with a multi-agent DDQN (van
Hasselt et al., 2016) that samples from a *global* experience replay
shared by all switches.  This module provides the single-agent DDQN
learner — its online and target Q-networks are one-row ReLU
:class:`~repro.rl.stacked.PackedMLP` networks, trained with the same
forward, backward, clip and Adam step as PPO's rows;
:class:`repro.baselines.acc.ACCController` wires one learner per switch
to a :class:`repro.rl.replay.GlobalReplayBuffer`.

Double-Q target::

    y = r + gamma * Q_target(s', argmax_a Q_online(s', a)) * (1 - done)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.rl.replay import ReplayBuffer
from repro.rl.stacked import PackedMLP, Rows

__all__ = ["DDQNConfig", "DDQNAgent"]


@dataclass
class DDQNConfig:
    obs_dim: int = 6
    n_actions: int = 10
    hidden: tuple = (64, 64)
    lr: float = 1e-3
    gamma: float = 0.99
    batch_size: int = 64
    target_sync_interval: int = 100   # hard target-network copies
    max_grad_norm: float = 10.0
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 2000
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")


class DDQNAgent:
    """Double DQN with a target network and linear epsilon decay."""

    def __init__(self, config: DDQNConfig,
                 replay: Optional[ReplayBuffer] = None) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        sizes = [config.obs_dim, *config.hidden, config.n_actions]
        self.q = PackedMLP(sizes, [self.rng], activation="relu")
        self.q_target = PackedMLP(sizes, [self.rng], activation="relu")
        self.q_target.params[...] = self.q.params
        self._q = Rows(self.q, slice(None), config.lr)
        self._q_target = self.q_target.layers(self.q_target.params)
        # A local buffer is used when no shared buffer is supplied; the ACC
        # controller passes a view onto the global pool instead.
        self.replay = replay if replay is not None else ReplayBuffer(
            capacity=10_000, rng=self.rng)
        self.steps = 0
        self.train_steps = 0

    # -- acting ------------------------------------------------------------
    def epsilon(self) -> float:
        cfg = self.config
        frac = min(1.0, self.steps / max(cfg.eps_decay_steps, 1))
        return cfg.eps_start + frac * (cfg.eps_end - cfg.eps_start)

    def q_values(self, obs: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        return self.q.forward(x[None], self._q.layers)[0, 0]

    def act(self, obs: np.ndarray, *, greedy: bool = False) -> int:
        self.steps += 1
        if not greedy and self.rng.random() < self.epsilon():
            return int(self.rng.integers(self.config.n_actions))
        return int(np.argmax(self.q_values(obs)))

    # -- learning ----------------------------------------------------------
    def train_step(self, replay: Optional[ReplayBuffer] = None) -> Dict[str, float]:
        """One minibatch TD update; no-op until the buffer warms up."""
        cfg = self.config
        buf = replay if replay is not None else self.replay
        if len(buf) < cfg.batch_size:
            return {"loss": 0.0, "mean_q": 0.0, "trained": 0.0}
        obs, actions, rewards, next_obs, dones = buf.sample(cfg.batch_size)
        m = len(obs)

        q = self._q
        # Double-Q target: online net selects, target net evaluates.
        next_q_online = self.q.forward(next_obs[None], q.layers)[0]
        best_next = np.argmax(next_q_online, axis=1)
        next_q_target = self.q_target.forward(next_obs[None],
                                              self._q_target)[0]
        target_vals = next_q_target[np.arange(m), best_next]
        y = rewards + cfg.gamma * target_vals * (~dones)

        inputs: list = []
        q_all = self.q.forward(obs[None], q.layers, inputs)[0]
        q_sa = q_all[np.arange(m), actions]
        td = q_sa - y
        loss = float(np.mean(td ** 2))

        grad_q = np.zeros_like(q_all)
        grad_q[np.arange(m), actions] = 2.0 * td / m
        self.q.backward(grad_q[None], q.layers, q.dlayers, inputs)
        self.q.clip(q.grads, cfg.max_grad_norm)
        self.train_steps += 1
        q.adam([self.train_steps])

        if self.train_steps % cfg.target_sync_interval == 0:
            self.q_target.params[...] = self.q.params
        return {"loss": loss, "mean_q": float(q_sa.mean()), "trained": 1.0}

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> Dict[str, Dict[str, np.ndarray]]:
        return {"q": self.q.state_dict(0),
                "q_target": self.q_target.state_dict(0)}

    def load_state_dict(self, state: Dict[str, Dict[str, np.ndarray]]) -> None:
        self.q.load_state_dict(0, state["q"])
        self.q_target.load_state_dict(0, state["q_target"])
