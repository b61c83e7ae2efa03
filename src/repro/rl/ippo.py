"""Independent PPO (IPPO) — the multi-agent learner PET builds on.

IPPO (Schroeder de Witt et al., 2020) runs one fully independent PPO
learner per agent: each learns from its own local observations, keeps its
own critic, and never exchanges experience or parameters with other
agents.  That is exactly the Decentralized Training / Decentralized
Execution (DTDE) paradigm the paper adopts: zero inter-switch
communication and no global experience replay (contrast with ACC's DDQN
in :mod:`repro.rl.ddqn`).

:class:`IPPOTrainer` is a thin orchestration convenience: it holds the
per-agent learners, routes per-agent observations/rewards, and triggers
per-agent updates.  Nothing in it mixes data across agents.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Hashable, Iterable, Mapping, Optional

import numpy as np

from repro.rl.ppo import PPOAgent, PPOConfig
from repro.rl.stacked import StackedAgents

__all__ = ["IPPOTrainer"]


class IPPOTrainer:
    """A set of independent PPO learners keyed by agent id.

    Parameters
    ----------
    agent_ids:
        Hashable identifiers, one per switch/agent.
    config:
        Shared hyperparameters; each agent gets its own networks seeded
        from ``config.seed`` + its index, so runs are reproducible but the
        agents are not parameter-tied.
    """

    def __init__(self, agent_ids: Iterable[Hashable], config: PPOConfig) -> None:
        ids = list(agent_ids)
        if not ids:
            raise ValueError("IPPOTrainer needs at least one agent")
        if len(set(ids)) != len(ids):
            raise ValueError("agent ids must be unique")
        self.config = config
        self.agents: Dict[Hashable, PPOAgent] = {}
        for i, aid in enumerate(ids):
            seed = None if config.seed is None else config.seed + i
            self.agents[aid] = PPOAgent(replace(config, seed=seed))
        self._row = {aid: i for i, aid in enumerate(ids)}
        self._stack: Optional[StackedAgents] = None

    @property
    def agent_ids(self):
        return list(self.agents.keys())

    def _stacked(self) -> StackedAgents:
        """The batched-inference stack, built on first use.  The agents
        share one :class:`PPOConfig`, so they always stack; agents made
        to diverge afterwards raise
        :class:`~repro.rl.stacked.StackingError`."""
        if self._stack is None:
            self._stack = StackedAgents(self.agents)
        return self._stack

    def act(self, observations: Mapping[Hashable, np.ndarray] | np.ndarray,
            *, epsilon: float = 0.0, greedy: bool = False,
            epsilons: Any = None, rows: Optional[np.ndarray] = None) -> Dict:
        """Per-agent action selection from per-agent local observations.

        Two shapes of call, one implementation.  A mapping ``{agent id:
        observation}`` returns ``{agent id: {action, log_prob, value}}``;
        ``epsilons`` optionally overrides ``epsilon`` per agent id (the
        PET controller runs one exploration schedule per switch).  A
        matrix whose row ``j`` is the observation of agent number
        ``rows[j]`` in trainer order (every agent when ``rows`` is None)
        takes ``epsilons`` as a sequence aligned with it and returns the
        three columns as arrays — the form the fleet observer feeds.

        The per-agent MLP forwards collapse into one batched forward
        (:meth:`_stacked`) — bit-identical per agent, including each
        agent's private sampling stream.
        """
        if isinstance(observations, np.ndarray):
            if epsilons is None and epsilon:
                epsilons = [epsilon] * len(observations)
            return self._stacked().act(observations, rows, epsilons, greedy)
        ids = list(observations)
        if not ids:
            return {}
        eps = [epsilon if epsilons is None else epsilons.get(aid, epsilon)
               for aid in ids]
        cols = self._stacked().act(
            np.array([observations[aid] for aid in ids], dtype=np.float64),
            np.array([self._row[aid] for aid in ids]), eps, greedy)
        return {aid: {"action": a, "log_prob": lp, "value": v}
                for aid, a, lp, v in zip(ids, cols["action"].tolist(),
                                         cols["log_prob"].tolist(),
                                         cols["value"].tolist())}

    def values(self, observations: Mapping[Hashable, np.ndarray]
               ) -> Dict[Hashable, float]:
        """Per-agent critic values, in one stacked forward."""
        return self._stacked().values(observations)

    def record(self, observations: Mapping[Hashable, np.ndarray],
               decisions: Mapping[Hashable, Mapping[str, float]],
               rewards: Mapping[Hashable, float],
               dones: Mapping[Hashable, bool],
               truncateds: Optional[Mapping[Hashable, bool]] = None,
               bootstrap_values: Optional[Mapping[Hashable, float]] = None
               ) -> None:
        """Store one transition per agent (local experience only).

        ``truncateds`` marks per-agent time-limit cut-offs (the
        multi-agent env surfaces one shared flag via
        ``info["TimeLimit.truncated"]``); truncated steps bootstrap
        through the boundary instead of zeroing ``V`` — see
        :meth:`repro.rl.ppo.PPOAgent.record`.
        """
        for aid, obs in observations.items():
            d = decisions[aid]
            self.agents[aid].record(
                obs, int(d["action"]), rewards[aid], bool(dones[aid]),
                d["log_prob"], d["value"],
                truncated=bool(truncateds.get(aid, False)) if truncateds else False,
                bootstrap_value=(bootstrap_values.get(aid)
                                 if bootstrap_values else None))

    def update(self, last_observations: Optional[Mapping[Hashable, np.ndarray]] = None
               ) -> Dict[Hashable, Dict[str, float]]:
        """Run one PPO update per agent on its own buffer.

        The per-agent bootstrap values ``V(s_T)`` are evaluated in one
        stacked critic forward (bit-identical to the per-agent calls) and
        handed to each learner.
        """
        last_values: Dict[Hashable, float] = {}
        if last_observations:
            last_values = self.values(last_observations)
        stats = {}
        for aid, agent in self.agents.items():
            last_obs = None
            if last_observations is not None:
                last_obs = last_observations.get(aid)
            lv = last_values.get(aid) if last_obs is not None else None
            stats[aid] = agent.update(last_obs, last_value=lv)
        return stats

    def stacking_status(self) -> Dict[str, object]:
        """JSON-safe summary of the batched-inference stack (the serve
        plane's ``/state`` endpoint surfaces it per policy)."""
        return {"stacked": True, **self._stacked().describe()}

    # -- checkpointing (offline pre-training -> online deployment) ---------
    def state_dict(self) -> Dict[Hashable, Dict]:
        return {aid: agent.state_dict() for aid, agent in self.agents.items()}

    def load_state_dict(self, state: Mapping[Hashable, Dict]) -> None:
        for aid, s in state.items():
            self.agents[aid].load_state_dict(s)

    def broadcast_parameters(self, source_state: Dict) -> None:
        """Install one pre-trained model on every agent.

        Mirrors the paper's deployment flow: a single offline pre-trained
        initial model is installed on all switches, which then diverge via
        online local incremental training (§4.4).
        """
        for agent in self.agents.values():
            agent.load_state_dict(source_state)
