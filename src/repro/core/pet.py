"""PETController — the multi-agent DTDE orchestration (paper Fig. 2).

One fully independent pipeline per switch:

    queue stats ──> NCM (monitor / analyze / cleanup)
                └─> reward generation (Eq. 6)
    NCM features ─> state builder ─> k-slot history ─> IPPO agent
    agent action ─> ECN-CM ─> queue ECN thresholds

Nothing crosses switches: no shared replay, no shared parameters, no
central critic — the properties the paper argues make PET deployable
where ACC's global experience replay is not.

The controller implements the shared :class:`~repro.core.controller.Controller`
interface so the experiment harness can drive PET, ACC and the static
schemes identically.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.core.action import ActionCodec
from repro.core.config import PETConfig
from repro.core.ecn_cm import ECNConfigModule
from repro.core.ncm import NetworkConditionMonitor
from repro.core.reward import REWARD_LOG_LEN, RewardComputer
from repro.core.state import HistoryWindow, StateBuilder
from repro.netsim.ecn import ECNConfig
from repro.netsim.network import QueueStats
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.rl.ippo import IPPOTrainer
from repro.rl.policy import ExplorationSchedule
from repro.rl.ppo import PPOConfig

__all__ = ["PETController"]


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
        self.state_builder = StateBuilder(cfg)
        self.reward = RewardComputer(cfg)
        self.ncm: Dict[str, NetworkConditionMonitor] = {
            s: NetworkConditionMonitor(s, cfg) for s in self.switches}
        self.history: Dict[str, HistoryWindow] = {
            s: HistoryWindow(cfg.history_k) for s in self.switches}
        self.ecn_cm: Dict[str, ECNConfigModule] = {
            s: ECNConfigModule(s, self.codec, cfg.delta_t) for s in self.switches}
        obs_dim = cfg.history_k * cfg.n_state_features
        ppo_cfg = PPOConfig(obs_dim=obs_dim, n_actions=self.codec.n_actions,
                            hidden=cfg.hidden, actor_lr=cfg.actor_lr,
                            critic_lr=cfg.critic_lr, gamma=cfg.gamma,
                            gae_lambda=cfg.gae_lambda, clip_eps=cfg.clip_eps,
                            entropy_coef=cfg.entropy_coef,
                            epochs=cfg.ppo_epochs,
                            minibatch_size=cfg.minibatch_size,
                            seed=cfg.seed,
                            fastpath=getattr(cfg, "fastpath", True))
        self.trainer = IPPOTrainer(self.switches, ppo_cfg)
        self.exploration: Dict[str, ExplorationSchedule] = {
            s: ExplorationSchedule(cfg.explore_eps0, cfg.decay_rate,
                                   cfg.decay_step) for s in self.switches}
        self.training = True
        self._pending: Dict[str, dict] = {}      # obs/decision awaiting reward
        self._steps = 0
        self._reward_log: Dict[str, Deque[float]] = {
            s: deque(maxlen=REWARD_LOG_LEN) for s in self.switches}
        self.update_stats: List[Dict] = []

    # -- Controller interface ------------------------------------------------
    def set_training(self, training: bool) -> None:
        self.training = training

    def decide(self, stats: Dict[str, QueueStats], now: float,
               network) -> Dict[str, ECNConfig]:
        """One tuning interval for every switch agent.

        Per switch: (1) NCM ingests the interval's stats and produces the
        category-2 features; (2) the reward for the *previous* action is
        computed from the same interval and the pending transition is
        recorded; (3) the agent selects a new action on the fresh
        observation; (4) the ECN-CM pushes the decoded thresholds.
        """
        tr = get_tracer()
        obs_now: Dict[str, np.ndarray] = {}
        rewards: Dict[str, float] = {}
        with tr.span("pet.ingest", now=now, switches=len(self.switches)):
            for s in self.switches:
                st = stats.get(s)
                if st is None:
                    continue
                analysis = self.ncm[s].ingest(st, now)
                features = self.state_builder.build(
                    st, analysis.incast_degree, analysis.flow_ratio)
                self.history[s].push(features)
                obs_now[s] = self.history[s].observation()
                rewards[s] = self.reward.compute(st)
                self._reward_log[s].append(rewards[s])

        # close out the previous decisions with this interval's rewards
        if self.training:
            for s, pending in list(self._pending.items()):
                if s not in obs_now:
                    continue
                agent = self.trainer.agents[s]
                agent.record(pending["obs"], pending["action"], rewards[s],
                             False, pending["log_prob"], pending["value"])
            self._steps += 1
            if self._steps % self.config.update_interval == 0:
                with tr.span("ppo.update", now=now, step=self._steps,
                             agents=len(obs_now)):
                    self.update_stats.append(self.trainer.update(obs_now))

        # select and apply new actions
        applied: Dict[str, ECNConfig] = {}
        with tr.span("pet.act", now=now, agents=len(obs_now)):
            # One exploration-schedule tick per switch (independent
            # schedules, so pulling them ahead of the batched act is
            # order-equivalent to the interleaved per-switch loop).
            epsilons = {s: (self.exploration[s].step() if self.training
                            else 0.0) for s in obs_now}
            decisions = self.trainer.act(obs_now, epsilons=epsilons,
                                         greedy=not self.training)
            for s, obs in obs_now.items():
                decision = decisions[s]
                self._pending[s] = {"obs": obs, **decision}
                cfgd = self.ecn_cm[s].apply(int(decision["action"]), now,
                                            network)
                if cfgd is not None:
                    applied[s] = cfgd
                    tr.event("ecn.reconfig", switch=s, now=now,
                             kmin=cfgd.kmin_bytes, kmax=cfgd.kmax_bytes,
                             pmax=cfgd.pmax)
        reg = get_registry()
        if reg:
            reg.inc("pet.decide_intervals")
            reg.inc("ecn.reconfigs", len(applied))
            for s, r in rewards.items():
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
        log = self._reward_log[s]
        if not log:
            return 0.0
        return float(np.mean(list(log)[-window:]))

    def reset_episode(self) -> None:
        """Clear histories/pending state between independent episodes."""
        for s in self.switches:
            self.history[s].clear()
        self._pending.clear()
