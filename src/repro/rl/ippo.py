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
per-agent updates.  Nothing in it mixes data across agents: they share
one stacked learner for speed, never a parameter or a transition.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Hashable, Iterable, Mapping, Optional

import numpy as np

from repro.rl.ppo import PPOAgent, PPOConfig
from repro.rl.stacked import PPOLearner

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

    The agents are rows of one :class:`~repro.rl.stacked.PPOLearner`
    (``learner``), in ``agent_ids`` order: one stacked forward acts for
    all of them and one stacked update trains them, bit-identical per
    agent to its own ``PPOAgent`` calls.
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
        self.learner = PPOLearner(list(self.agents.values()))
        self._row = {aid: i for i, aid in enumerate(ids)}

    @property
    def agent_ids(self):
        return list(self.agents.keys())

    def _rows(self, ids) -> np.ndarray:
        return np.array([self._row[aid] for aid in ids], dtype=np.int64)

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
        over the learner's packed weights — bit-identical per agent,
        including each agent's private sampling stream.
        """
        if isinstance(observations, np.ndarray):
            if epsilons is None and epsilon:
                epsilons = [epsilon] * len(observations)
            return self.learner.act(observations, rows, epsilons, greedy)
        ids = list(observations)
        if not ids:
            return {}
        eps = [epsilon if epsilons is None else epsilons.get(aid, epsilon)
               for aid in ids]
        cols = self.learner.act(
            np.array([observations[aid] for aid in ids], dtype=np.float64),
            self._rows(ids), eps, greedy)
        return {aid: {"action": a, "log_prob": lp, "value": v}
                for aid, a, lp, v in zip(ids, cols["action"].tolist(),
                                         cols["log_prob"].tolist(),
                                         cols["value"].tolist())}

    def values(self, observations: Mapping[Hashable, np.ndarray]
               ) -> Dict[Hashable, float]:
        """Per-agent critic values, in one stacked forward."""
        ids = list(observations)
        vals = self.learner.critic_values(self._rows(ids), np.array(
            [np.ravel(observations[aid]) for aid in ids], dtype=np.float64))
        return dict(zip(ids, vals.tolist()))

    def record(self, observations: Mapping[Hashable, np.ndarray],
               decisions: Mapping[Hashable, Mapping[str, float]],
               rewards: Mapping[Hashable, float],
               dones: Mapping[Hashable, bool],
               truncateds: Optional[Mapping[Hashable, bool]] = None,
               bootstrap_values: Optional[Mapping[Hashable, float]] = None
               ) -> None:
        """Store one transition per agent (local experience only), as one
        column write into the learner's rollout arrays.

        ``truncateds`` marks per-agent time-limit cut-offs (the
        multi-agent env surfaces one shared flag via
        ``info["TimeLimit.truncated"]``); truncated steps bootstrap
        through the boundary instead of zeroing ``V`` — see
        :meth:`repro.rl.ppo.PPOAgent.record`.
        """
        ids = list(observations)
        if not ids:
            return
        truncateds = truncateds or {}
        boots = bootstrap_values or {}
        self.learner.record(
            self._rows(ids),
            np.array([np.ravel(observations[aid]) for aid in ids],
                     dtype=np.float64),
            [int(decisions[aid]["action"]) for aid in ids],
            [rewards[aid] for aid in ids], [bool(dones[aid]) for aid in ids],
            [decisions[aid]["log_prob"] for aid in ids],
            [decisions[aid]["value"] for aid in ids],
            [bool(truncateds.get(aid, False)) for aid in ids],
            [0.0 if boots.get(aid) is None else boots[aid] for aid in ids])

    def update(self, last_observations: Optional[Mapping[Hashable, np.ndarray]] = None
               ) -> Dict[Hashable, Dict[str, float]]:
        """Run one PPO update per agent on its own buffer, as the
        learner's stacked update; an agent missing from
        ``last_observations`` does not bootstrap."""
        ids = self.agent_ids
        last = has = None
        if last_observations:
            last = np.zeros((len(ids), self.config.obs_dim))
            has = np.zeros(len(ids), dtype=bool)
            for aid, obs in last_observations.items():
                last[self._row[aid]] = np.ravel(obs)
                has[self._row[aid]] = True
        stats = self.learner.update(np.arange(len(ids)), last, has)
        return dict(zip(ids, stats))

    def stacking_status(self) -> Dict[str, object]:
        """JSON-safe summary of the stack (the serve plane's ``/state``
        endpoint surfaces it per policy)."""
        return {"stacked": True, **self.learner.describe()}

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
