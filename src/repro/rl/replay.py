"""Experience replay buffers.

Two variants:

- :class:`ReplayBuffer` — the per-switch local buffer every DDQN agent
  needs.
- :class:`GlobalReplayBuffer` — the *shared* buffer the ACC paper's
  multi-agent DDQN relies on: agents push local transitions into a common
  pool and sample from the union.  PET's central criticism of ACC is the
  memory and bandwidth overhead of keeping this pool synchronized across
  switches, so the global buffer also meters how many bytes each agent
  ships to its peers (``bytes_exchanged``) — the quantity PET eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Sequence, Tuple

import numpy as np

from repro.parallel.seeding import fallback_rng

__all__ = ["Transition", "ReplayBuffer", "GlobalReplayBuffer"]


@dataclass(frozen=True)
class Transition:
    """One (s, a, r, s', done) tuple."""

    obs: np.ndarray
    action: int
    reward: float
    next_obs: np.ndarray
    done: bool

    def nbytes(self) -> int:
        """Approximate wire size of the transition if shipped to a peer."""
        return int(self.obs.nbytes + self.next_obs.nbytes + 8 + 8 + 1)


class ReplayBuffer:
    """Uniform-sampling ring buffer, stored as columns: ``(capacity, d)``
    ring arrays of ``obs`` and ``next_obs`` plus action, reward and done
    columns, allocated at the first push.  A sample gathers each column
    once; the oldest of the buffered transitions is index 0 of the draw,
    as in a ``deque(maxlen=capacity)``."""

    def __init__(self, capacity: int, rng: np.random.Generator | None = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.rng = rng if rng is not None else fallback_rng(0)
        self._cols: Tuple[np.ndarray, ...] = ()
        self._len = 0
        self._next = 0              # the ring row the next push writes

    def push(self, t: Transition) -> None:
        if not self._cols:
            cap = self.capacity
            self._cols = (np.empty((cap,) + t.obs.shape, t.obs.dtype),
                          np.empty(cap, dtype=np.int64), np.empty(cap),
                          np.empty((cap,) + t.next_obs.shape, t.next_obs.dtype),
                          np.empty(cap, dtype=bool))
        i = self._next
        for col, value in zip(self._cols, (t.obs, t.action, t.reward,
                                           t.next_obs, t.done)):
            col[i] = value
        self._next = (i + 1) % self.capacity
        self._len = min(self._len + 1, self.capacity)

    def add(self, obs, action, reward, next_obs, done) -> None:
        self.push(Transition(np.asarray(obs, dtype=np.float64).ravel(), int(action),
                             float(reward),
                             np.asarray(next_obs, dtype=np.float64).ravel(),
                             bool(done)))

    def __len__(self) -> int:
        return self._len

    def sample(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                               np.ndarray, np.ndarray]:
        """Sample with replacement; returns ``(obs, actions, rewards,
        next_obs, dones)`` arrays."""
        if self._len == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = self.rng.integers(self._len, size=batch_size)
        rows = (self._next - self._len + idx) % self.capacity
        obs, actions, rewards, next_obs, dones = (
            col.take(rows, axis=0) for col in self._cols)
        return obs, actions, rewards, next_obs, dones

    def nbytes(self) -> int:
        """Resident memory estimate of the buffered transitions, as the
        sum of their :meth:`Transition.nbytes`."""
        if not self._cols:
            return 0
        obs, _, _, next_obs, _ = self._cols
        return self._len * int(obs[0].nbytes + next_obs[0].nbytes + 8 + 8 + 1)


class GlobalReplayBuffer:
    """Shared multi-agent replay pool with per-agent exchange accounting.

    Every ``push`` from agent *i* is (conceptually) broadcast to all other
    agents, so the bandwidth cost per push is ``(n_agents - 1) *
    transition_size``.  ACC pays this; PET does not — which is why the
    benchmark harness reports this meter in the overhead comparison.
    """

    def __init__(self, capacity: int, agent_ids: Sequence[Hashable],
                 rng: np.random.Generator | None = None) -> None:
        self.buffer = ReplayBuffer(capacity, rng=rng)
        self.agent_ids = list(agent_ids)
        if not self.agent_ids:
            raise ValueError("need at least one agent")
        self.bytes_exchanged: Dict[Hashable, int] = {a: 0 for a in self.agent_ids}
        self.pushes: Dict[Hashable, int] = {a: 0 for a in self.agent_ids}

    def push(self, agent_id: Hashable, t: Transition) -> None:
        if agent_id not in self.bytes_exchanged:
            raise KeyError(f"unknown agent {agent_id!r}")
        self.buffer.push(t)
        peers = len(self.agent_ids) - 1
        self.bytes_exchanged[agent_id] += t.nbytes() * peers
        self.pushes[agent_id] += 1

    def add(self, agent_id: Hashable, obs, action, reward, next_obs, done) -> None:
        self.push(agent_id, Transition(np.asarray(obs, dtype=np.float64).ravel(),
                                       int(action), float(reward),
                                       np.asarray(next_obs, dtype=np.float64).ravel(),
                                       bool(done)))

    def sample(self, batch_size: int):
        return self.buffer.sample(batch_size)

    def __len__(self) -> int:
        return len(self.buffer)

    def total_bytes_exchanged(self) -> int:
        return sum(self.bytes_exchanged.values())

    def nbytes(self) -> int:
        return self.buffer.nbytes()
