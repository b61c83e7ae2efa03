"""Multi-queue adaptation of PET (paper §4.5.2).

The paper: "To support multiple queues, the algorithm needs to
incorporate information from all queues by constructing a matrix
representation and feeding it as input to the DRL model … Through
appropriate computations, the model can generate the output information
matrix specific to each queue."

Implementation: each switch still runs exactly one agent (one model) —
the matrix in/out is realized by applying that model *per row*: every
egress queue contributes its own feature history as one row of the
input matrix, the shared policy maps each row to that queue's ECN
action, and all rows' transitions train the one switch-local model.
This keeps the DTDE property (nothing crosses switches) while letting
hot and cold queues of the same switch get different thresholds.

The NCM stays switch-level: incast degree and the mice/elephant ratio
aggregate "information from all queues … to provide input to the reward
generator" exactly as §4.5.2 prescribes; the per-queue rows carry the
queue-local features (qlen, txRate, txRate^(m), ECN^(c)).  Both levels
run on the fleet forms PET observes through: one
:class:`~repro.core.ncm.FleetNCM` row per switch, and one
:class:`~repro.core.state.TelemetryColumns` → state matrix → history
row → Eq. 6 reward per queue.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.action import ActionCodec
from repro.core.config import PETConfig
from repro.core.ncm import FleetNCM
from repro.core.pet import ppo_config
from repro.core.reward import RewardComputer
from repro.core.state import HistoryWindow, StateBuilder, TelemetryColumns
from repro.netsim.ecn import ECNConfig
from repro.netsim.network import QueueStats
from repro.rl.ippo import IPPOTrainer
from repro.rl.policy import ExplorationSchedule

__all__ = ["MultiQueuePETController"]

QueueKey = Tuple[str, int]


class MultiQueuePETController:
    """PET with per-queue thresholds: one shared model per switch.

    Drive it like the single-queue controller but with per-port stats::

        net.advance(dt)
        port_stats = net.port_stats()
        switch_stats = net.queue_stats()       # also resets the interval
        controller.decide(port_stats, switch_stats, net.now, net)

    The queues of the first ``port_stats`` are the rows of the input
    matrix for the controller's lifetime; a later interval may report
    fewer of them, but none it did not report then.
    """

    def __init__(self, switch_names: List[str],
                 config: Optional[PETConfig] = None) -> None:
        if not switch_names:
            raise ValueError("need at least one switch")
        self.config = config or PETConfig()
        cfg = self.config
        self.switches = list(switch_names)
        self.codec = ActionCodec.from_config(cfg)
        self.state_builder = StateBuilder(cfg)
        self.reward = RewardComputer(cfg)
        self.ncm = FleetNCM(self.switches, cfg)
        self.trainer = IPPOTrainer(self.switches,
                                   ppo_config(cfg, self.codec.n_actions))
        self.exploration: Dict[str, ExplorationSchedule] = {
            s: ExplorationSchedule(cfg.explore_eps0, cfg.decay_rate,
                                   cfg.decay_step) for s in self.switches}
        #: per-queue feature history, a row of the input matrix each
        self.history: Optional[HistoryWindow] = None
        self._port_row: Dict[QueueKey, int] = {}
        self.training = True
        self._pending: Dict[QueueKey, dict] = {}
        self._steps = 0

    def set_training(self, training: bool) -> None:
        self.training = training

    def decide(self, port_stats: Dict[QueueKey, QueueStats],
               switch_stats: Dict[str, QueueStats], now: float,
               network) -> Dict[QueueKey, ECNConfig]:
        """One tuning interval: per-queue actions from per-switch models."""
        cfg = self.config
        if self.history is None:        # the first interval lays out the rows
            self._port_row = {key: i for i, key in enumerate(port_stats)}
            self.history = HistoryWindow(cfg.history_k, cfg.n_state_features,
                                         rows=len(self._port_row))
        # switch-level analysis feeds every row of that switch's matrix
        found = [(i, st) for i, st in enumerate(map(switch_stats.get,
                                                    self.switches))
                 if st is not None]
        if found:
            incast, ratio, _ = self.ncm.ingest(
                [st for _, st in found], np.array([i for i, _ in found]))
        present = {self.switches[i]: j for j, (i, _) in enumerate(found)}
        keys = [key for key in port_stats if key[0] in present]
        obs_now: Dict[QueueKey, np.ndarray] = {}
        rewards: Dict[QueueKey, float] = {}
        if keys:
            try:
                rows = np.array([self._port_row[key] for key in keys])
            except KeyError as exc:
                raise ValueError(f"queue {exc.args[0]} was not in the first "
                                 "interval's port_stats") from None
            at = np.array([present[key[0]] for key in keys])
            cols = TelemetryColumns([port_stats[key] for key in keys])
            self.history.push(self.state_builder.build_fleet(
                cols, incast[at], ratio[at]), rows)
            obs_now = dict(zip(keys, self.history.observation(rows)))
            rewards = dict(zip(keys, self.reward.compute_fleet(cols).tolist()))

        if self.training:
            closed = [key for key in self._pending if key in obs_now]
            for keys, rows in self._rounds(closed):
                done = [self._pending[key] for key in keys]
                self.trainer.learner.record(
                    rows, [d["obs"] for d in done], [d["action"] for d in done],
                    [rewards[k] for k in keys], False,
                    [d["log_prob"] for d in done], [d["value"] for d in done])
            self._steps += 1
            if self._steps % cfg.update_interval == 0:
                self.trainer.update()

        applied: Dict[QueueKey, ECNConfig] = {}
        eps = {s: (self.exploration[s].step() if self.training else 0.0)
               for s in self.switches}
        for keys, rows in self._rounds(obs_now):
            obs = np.array([obs_now[key] for key in keys])
            cols = self.trainer.act(obs, rows=rows, greedy=not self.training,
                                    epsilons=[eps[key[0]] for key in keys])
            for j, key in enumerate(keys):
                self._pending[key] = {"obs": obs[j], **{
                    name: col[j] for name, col in cols.items()}}
        for key in obs_now:
            ecn = self.codec.decode(int(self._pending[key]["action"]))
            network.set_ecn_port(key[0], key[1], ecn)
            applied[key] = ecn
        return applied

    def _rounds(self, keys) -> List[Tuple[List[QueueKey], np.ndarray]]:
        """``keys`` in rounds that hold each switch at most once, round
        ``j`` its ``j``-th queue, as ``(keys, trainer rows)``: a stacked
        call per round draws and records per switch in ``keys`` order,
        as a call per queue would."""
        rounds: Dict[int, List[QueueKey]] = {}
        seen = dict.fromkeys(self.switches, 0)
        for key in keys:
            rounds.setdefault(seen[key[0]], []).append(key)
            seen[key[0]] += 1
        return [(r, np.array([self.switches.index(k[0]) for k in r]))
                for r in rounds.values()]

    def advance_exploration(self, steps: int) -> None:
        for sched in self.exploration.values():
            sched.t += max(steps, 0)

    def state_dict(self) -> Dict[str, Dict]:
        return self.trainer.state_dict()

    def load_state_dict(self, state: Dict[str, Dict]) -> None:
        self.trainer.load_state_dict(state)
