"""PETController — the multi-agent DTDE orchestration (paper Fig. 2).

One fully independent pipeline per switch:

    queue stats ──> NCM (monitor / analyze / cleanup)
                └─> reward generation (Eq. 6)
    NCM features ─> state builder ─> k-slot history ─> IPPO agent
    agent action ─> ECN-CM ─> queue ECN thresholds

Nothing crosses switches: no shared replay, no shared parameters, no
central critic — the properties the paper argues make PET deployable
where ACC's global experience replay is not.  Independent is not
separate, though: the pipelines tick together, so everything up to the
agents runs once for the fleet, a column per quantity
(:class:`~repro.core.observer.FleetObserver`).

The controller implements the shared :class:`~repro.core.controller.Controller`
interface so the experiment harness can drive PET, ACC and the static
schemes identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.action import ActionCodec
from repro.core.config import PETConfig
from repro.core.ecn_cm import ECNConfigModule
from repro.core.observer import FleetObserver
from repro.core.reward import REWARD_LOG_LEN
from repro.netsim.ecn import ECNConfig
from repro.netsim.network import QueueStats
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.rl.ippo import IPPOTrainer
from repro.rl.policy import ExplorationSchedule
from repro.rl.ppo import PPOConfig

__all__ = ["PETController", "ppo_config"]


def ppo_config(cfg: PETConfig, n_actions: int) -> PPOConfig:
    """The hyperparameters of every switch's learner (the trainer seeds
    switch ``i`` with ``cfg.seed + i``)."""
    return PPOConfig(obs_dim=cfg.history_k * cfg.n_state_features,
                     n_actions=n_actions, hidden=cfg.hidden,
                     actor_lr=cfg.actor_lr, critic_lr=cfg.critic_lr,
                     gamma=cfg.gamma, gae_lambda=cfg.gae_lambda,
                     clip_eps=cfg.clip_eps, entropy_coef=cfg.entropy_coef,
                     epochs=cfg.ppo_epochs, minibatch_size=cfg.minibatch_size,
                     seed=cfg.seed)


class PETController:
    """Multi-agent IPPO ECN tuner (the paper's PET)."""

    def __init__(self, switch_names: List[str],
                 config: Optional[PETConfig] = None) -> None:
        if not switch_names:
            raise ValueError("need at least one switch")
        self.config = config or PETConfig()
        cfg = self.config
        self.switches = list(switch_names)
        self.codec = ActionCodec.from_config(cfg)
        self.observer = FleetObserver(self.switches, cfg)
        self.ecn_cm: Dict[str, ECNConfigModule] = {
            s: ECNConfigModule(s, self.codec, cfg.delta_t) for s in self.switches}
        self.trainer = IPPOTrainer(self.switches,
                                   ppo_config(cfg, self.codec.n_actions))
        self.exploration: Dict[str, ExplorationSchedule] = {
            s: ExplorationSchedule(cfg.explore_eps0, cfg.decay_rate,
                                   cfg.decay_step) for s in self.switches}
        self.training = True
        #: the decisions awaiting their reward, as fleet-wide columns
        #: (``obs``, ``action``, ``log_prob``, ``value``, ``valid``); a
        #: switch that sits a tick out keeps its row until it is back
        self._pending: Dict[str, np.ndarray] = {}
        self._steps = 0
        self._reward_log = self.observer.reward_log
        #: the per-switch stats of the last ``REWARD_LOG_LEN`` updates
        self.update_stats: List[Dict] = []

    # -- Controller interface ------------------------------------------------
    def set_training(self, training: bool) -> None:
        self.training = training

    def decide(self, stats: Dict[str, QueueStats], now: float,
               network) -> Dict[str, ECNConfig]:
        """One tuning interval for every switch agent.

        (1) The observer ingests the interval's stats: NCM features,
        normalized state, history and the reward for the *previous*
        action, for every reporting switch at once; (2) the pending
        transitions are recorded with those rewards, one column write
        into the learner's rollouts; (3) the agents
        select new actions on the fresh observations; (4) the ECN-CMs
        push the decoded thresholds.
        """
        tr = get_tracer()
        with tr.span("pet.ingest", now=now, switches=len(self.switches)):
            seen = self.observer.observe(stats)
        rows, n_seen = seen.rows, len(seen.switches)
        pend = self._pending
        if not pend:
            n = len(self.switches)
            pend.update(obs=np.zeros((n, seen.obs.shape[1])),
                        action=np.zeros(n, dtype=np.int64),
                        log_prob=np.zeros(n), value=np.zeros(n),
                        valid=np.zeros(n, dtype=bool))

        # close out the previous decisions with this interval's rewards
        if self.training:
            ok = pend["valid"][rows]
            r = rows[ok]
            if len(r):
                self.trainer.learner.record(
                    r, pend["obs"][r], pend["action"][r], seen.reward[ok],
                    False, pend["log_prob"][r], pend["value"][r])
            self._steps += 1
            if self._steps % self.config.update_interval == 0:
                with tr.span("ppo.update", now=now, step=self._steps,
                             agents=n_seen):
                    self.update_stats.append(self.trainer.update(
                        dict(zip(seen.switches, seen.obs))))
                del self.update_stats[:-REWARD_LOG_LEN]

        # select and apply new actions
        applied: Dict[str, ECNConfig] = {}
        with tr.span("pet.act", now=now, agents=n_seen):
            # One exploration-schedule tick per switch (independent
            # schedules, so pulling them ahead of the batched act is
            # order-equivalent to the interleaved per-switch loop).
            epsilons = ([self.exploration[s].step() for s in seen.switches]
                        if self.training else None)
            decided = self.trainer.act(seen.obs, rows=rows, epsilons=epsilons,
                                       greedy=not self.training)
            for name, column in decided.items():
                pend[name][rows] = column
            pend["obs"][rows] = seen.obs
            pend["valid"][rows] = True
            for s, action in zip(seen.switches, decided["action"].tolist()):
                cfgd = self.ecn_cm[s].apply(action, now, network)
                if cfgd is not None:
                    applied[s] = cfgd
                    tr.event("ecn.reconfig", switch=s, now=now,
                             kmin=cfgd.kmin_bytes, kmax=cfgd.kmax_bytes,
                             pmax=cfgd.pmax)
        reg = get_registry()
        if reg:
            reg.inc("pet.decide_intervals")
            reg.inc("ecn.reconfigs", len(applied))
            for s, r in zip(seen.switches, seen.reward.tolist()):
                reg.observe("pet.reward", r, switch=s)
        return applied

    # -- checkpointing (offline -> online deployment, §4.4) --------------------
    def state_dict(self) -> Dict:
        return self.trainer.state_dict()

    def load_state_dict(self, state: Dict) -> None:
        self.trainer.load_state_dict(state)

    def install_pretrained(self, single_agent_state: Dict) -> None:
        """Install one offline pre-trained model on every switch agent."""
        self.trainer.broadcast_parameters(single_agent_state)

    def advance_exploration(self, steps: int) -> None:
        """Continue the Eq. 13 epsilon decay from an earlier training phase.

        Deployment installs a model that already trained for ``steps``
        offline steps; the online exploration rate resumes from there
        rather than restarting at eps0 (§4.4: exploration decays as
        training progresses, it does not reset at deployment)."""
        for sched in self.exploration.values():
            sched.t += max(steps, 0)

    # -- diagnostics --------------------------------------------------------------
    def mean_recent_reward(self, s: str, window: int = 50) -> float:
        """Mean of the last ``window`` (at most ``REWARD_LOG_LEN``) rewards."""
        return self.observer.mean_recent_reward(s, window)

    def reset_episode(self) -> None:
        """Clear NCM windows, histories and pending decisions between
        independent episodes: the next interval is observed exactly as a
        fresh controller (with these weights) would observe it."""
        self.observer.clear()
        self._pending.clear()
