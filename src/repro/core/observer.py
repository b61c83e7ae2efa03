"""FleetObserver — a collection's telemetry to every switch's observation
and reward in one pass.

Each switch's pipeline is independent (paper Fig. 2: NCM → six-factor
state → k-slot history, and Eq. 6 on the side), but all of them run on
the same tick from the same ``queue_stats()`` collection, so the observer
runs each stage once over columns: scalar fields read off the records,
per-flow rows taken once from the collection's snapshot
(:class:`~repro.core.ncm.FleetNCM`), then normalization, history shift
and reward as whole-fleet array operations.  ``PETController``,
``ACCController`` and ``MultiAgentDCNEnv`` (and so ``DCNEnv``, its
one-switch view) all observe through it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.config import PETConfig
from repro.core.ncm import FleetNCM
from repro.core.reward import REWARD_LOG_LEN, RewardComputer
from repro.core.state import HistoryWindow, StateBuilder, TelemetryColumns
from repro.netsim.network import QueueStats

__all__ = ["FleetObservation", "FleetObserver"]


@dataclass
class FleetObservation:
    """What one tick showed of the switches that reported."""

    switches: List[str]      # present switches, in fleet order
    rows: np.ndarray         # their row numbers in the fleet
    obs: np.ndarray          # (present, 6k) stacked states s'_t, a fresh copy
    reward: np.ndarray       # (present,) Eq. 6 over the interval just ended


class FleetObserver:
    """NCM, state builder, history window and reward of a whole fleet."""

    def __init__(self, switches: Sequence[str], config: PETConfig) -> None:
        self.switches = list(switches)
        self.config = config
        self._all_rows = np.arange(len(self.switches))
        self.ncm = FleetNCM(self.switches, config)
        self.state_builder = StateBuilder(config)
        self.reward = RewardComputer(config)
        self.history = HistoryWindow(config.history_k,
                                     config.n_state_features,
                                     rows=len(self.switches))
        #: the last ``REWARD_LOG_LEN`` rewards of each switch (a diagnostic)
        self.reward_log: Dict[str, Deque[float]] = {
            s: deque(maxlen=REWARD_LOG_LEN) for s in self.switches}

    def observe(self, stats: Mapping[str, Optional[QueueStats]]
                ) -> FleetObservation:
        """Ingest one interval's records; switches without one sit the
        tick out (no slot, no history shift, no reward)."""
        found = [(i, st) for i, st in enumerate(map(stats.get, self.switches))
                 if st is not None]
        rows, switches = self._all_rows, self.switches
        if len(found) < len(switches):
            rows = np.array([i for i, _ in found], dtype=np.int64)
            switches = [switches[i] for i, _ in found]
        if not found:
            return FleetObservation([], rows, np.empty((0, self.history.obs_dim)),
                                    np.empty(0))
        records = [st for _, st in found]
        cols = TelemetryColumns(records)
        incast, ratio, _ = self.ncm.ingest(records, rows)
        self.history.push(self.state_builder.build_fleet(cols, incast, ratio),
                          rows)
        reward = self.reward.compute_fleet(cols)
        for s, r in zip(switches, reward.tolist()):
            self.reward_log[s].append(r)
        return FleetObservation(switches, rows, self.history.observation(rows),
                                reward)

    def mean_recent_reward(self, s: str, window: int = 50) -> float:
        """Mean of the last ``window`` (at most ``REWARD_LOG_LEN``) rewards."""
        log = self.reward_log[s]
        if not log:
            return 0.0
        return float(np.mean(list(log)[-window:]))

    def clear(self) -> None:
        """Forget the NCM window and the state history (a new episode);
        the reward log, a run-long diagnostic, stays."""
        self.ncm.clear()
        self.history.clear()
