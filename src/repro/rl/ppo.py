"""Single-agent PPO with the clipped surrogate objective.

This is the learner each PET switch runs independently.  The policy loss
is the paper's Eq. 11::

    L_pi(theta) = E[ min( ratio * A,  clip(ratio, 1-eps, 1+eps) * A ) ]

(maximized; we descend its negation) and the value loss is Eq. 12::

    L_v(omega) = E[ (V_omega(s) - R_hat)^2 ]

Gradients are computed analytically at the logits/value head and
backpropagated through the NumPy MLPs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.obs.metrics import get_registry
from repro.rl.gae import compute_gae
from repro.rl.nn import MLP, clip_gradients
from repro.rl.optim import Adam
from repro.rl.policy import CategoricalPolicy, softmax

__all__ = ["PPOConfig", "RolloutBuffer", "PPOAgent", "approx_kl_k3"]


def approx_kl_k3(old_logp: np.ndarray, new_logp: np.ndarray) -> float:
    """The k3 KL estimator ``E[(ratio - 1) - log(ratio)]``.

    The naive k1 estimator ``E[old_logp - new_logp]`` is signed: its
    per-sample terms cancel, it frequently goes negative, and it is
    useless as a divergence diagnostic.  k3 (Schulman, "Approximating KL
    Divergence") is non-negative term-by-term — ``(x-1) - log(x) >= 0``
    for all x > 0 — unbiased, and low-variance, so it is the standard
    early-stopping/trust-region signal.
    """
    log_ratio = np.asarray(new_logp) - np.asarray(old_logp)
    return float(np.mean((np.exp(log_ratio) - 1.0) - log_ratio))


@dataclass
class PPOConfig:
    """Hyperparameters; defaults follow paper §5.2."""

    obs_dim: int = 6
    n_actions: int = 10
    hidden: tuple = (64, 64)
    actor_lr: float = 4e-4       # paper: actor 0.0004
    critic_lr: float = 1e-3      # paper: critic 0.001
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_eps: float = 0.2        # paper: 0.2
    entropy_coef: float = 0.01   # paper: GAE variance/bias coefficient 0.01
    epochs: int = 4              # SGD epochs per update (Algorithm 1: N)
    minibatch_size: int = 64
    max_grad_norm: float = 0.5
    normalize_advantages: bool = True
    seed: Optional[int] = None


@dataclass
class RolloutBuffer:
    """On-policy trajectory storage for one agent between updates.

    ``truncateds[t]`` distinguishes a time-limit cut-off from a true
    terminal state; ``bootstraps[t]`` carries ``V`` of the successor
    state for truncated steps (0 elsewhere) so GAE can bootstrap through
    the boundary (see :func:`repro.rl.gae.compute_gae`).
    """

    obs: List[np.ndarray] = field(default_factory=list)
    actions: List[int] = field(default_factory=list)
    rewards: List[float] = field(default_factory=list)
    dones: List[bool] = field(default_factory=list)
    log_probs: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)
    truncateds: List[bool] = field(default_factory=list)
    bootstraps: List[float] = field(default_factory=list)

    def add(self, obs: np.ndarray, action: int, reward: float, done: bool,
            log_prob: float, value: float, *, truncated: bool = False,
            bootstrap_value: float = 0.0) -> None:
        self.obs.append(np.asarray(obs, dtype=np.float64).ravel())
        self.actions.append(int(action))
        self.rewards.append(float(reward))
        self.dones.append(bool(done) or bool(truncated))
        self.log_probs.append(float(log_prob))
        self.values.append(float(value))
        self.truncateds.append(bool(truncated))
        self.bootstraps.append(float(bootstrap_value))

    def __len__(self) -> int:
        return len(self.obs)

    def clear(self) -> None:
        for lst in (self.obs, self.actions, self.rewards, self.dones,
                    self.log_probs, self.values, self.truncateds,
                    self.bootstraps):
            lst.clear()


class PPOAgent:
    """Actor-critic PPO learner with separate actor/critic networks."""

    def __init__(self, config: PPOConfig) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.actor = MLP([config.obs_dim, *config.hidden, config.n_actions],
                         activation="tanh", out_scale=0.01, rng=self.rng)
        self.critic = MLP([config.obs_dim, *config.hidden, 1],
                          activation="tanh", rng=self.rng)
        self.policy = CategoricalPolicy(self.actor, rng=self.rng)
        self.actor_opt = Adam(self.actor, config.actor_lr)
        self.critic_opt = Adam(self.critic, config.critic_lr)
        self.buffer = RolloutBuffer()
        self.updates = 0
        self._arange_cache: Dict[int, np.ndarray] = {}

    # -- acting ------------------------------------------------------------
    def value(self, obs: np.ndarray) -> float:
        return float(self.critic.forward(np.atleast_2d(obs))[0, 0])

    def act(self, obs: np.ndarray, *, epsilon: float = 0.0,
            greedy: bool = False) -> Dict[str, float]:
        """Select an action; returns dict with action, log_prob and value."""
        a, logp = self.policy.act(obs, epsilon=epsilon, greedy=greedy)
        return {"action": a, "log_prob": logp, "value": self.value(obs)}

    def record(self, obs: np.ndarray, action: int, reward: float, done: bool,
               log_prob: float, value: float, *, truncated: bool = False,
               bootstrap_value: Optional[float] = None) -> None:
        """Store one transition.

        ``truncated`` marks a time-limit episode end (Gym's
        ``info["TimeLimit.truncated"]``): GAE then bootstraps through
        the boundary instead of zeroing ``V(s_{t+1})``.  For a
        truncation in the *middle* of a buffer, pass ``bootstrap_value
        = agent.value(next_obs)`` (the successor state's value — the
        obs recorded at the next step belongs to a new episode); a
        truncation on the buffer's *final* step bootstraps automatically
        from the ``last_obs`` handed to :meth:`update`.
        """
        self.buffer.add(obs, action, reward, done, log_prob, value,
                        truncated=truncated,
                        bootstrap_value=(0.0 if bootstrap_value is None
                                         else float(bootstrap_value)))

    # -- learning ----------------------------------------------------------
    def update(self, last_obs: Optional[np.ndarray] = None, *,
               last_value: Optional[float] = None) -> Dict[str, float]:
        """Run PPO epochs over the stored rollout and clear the buffer.

        ``last_value`` optionally supplies the precomputed ``V`` of
        ``last_obs`` (the batched IPPO path evaluates all agents'
        critics in one stacked forward); when given it must equal
        ``self.value(last_obs)``.

        Returns diagnostics: mean policy loss, value loss, entropy,
        approximate KL, and clip fraction.
        """
        buf = self.buffer
        if len(buf) == 0:
            return {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0,
                    "approx_kl": 0.0, "clip_frac": 0.0}
        cfg = self.config
        obs = np.stack(buf.obs)
        actions = np.asarray(buf.actions, dtype=np.int64)
        old_logp = np.asarray(buf.log_probs)
        values = np.asarray(buf.values)
        truncateds = np.asarray(buf.truncateds, dtype=bool)
        bootstraps = np.asarray(buf.bootstraps, dtype=np.float64)
        lv = 0.0
        if last_obs is not None and (not buf.dones[-1] or truncateds[-1]):
            # Bootstrap V(s_T) when the rollout is cut off rather than
            # terminated — a time-limit boundary is not an absorbing
            # state (the headline fix of docs/OBSERVABILITY.md's PR).
            lv = self.value(last_obs) if last_value is None else float(last_value)
        if truncateds[-1] and bootstraps[-1] == 0.0:
            bootstraps[-1] = lv
        adv, returns = compute_gae(np.asarray(buf.rewards), values,
                                   np.asarray(buf.dones), lv,
                                   cfg.gamma, cfg.gae_lambda,
                                   truncateds=truncateds,
                                   bootstrap_values=bootstraps)
        if cfg.normalize_advantages and len(adv) > 1:
            adv = (adv - adv.mean()) / (adv.std() + 1e-8)

        n = len(obs)
        idx = np.arange(n)
        stats = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0,
                 "approx_kl": 0.0, "clip_frac": 0.0}
        batches = 0
        mbs = cfg.minibatch_size
        for _ in range(cfg.epochs):
            self.rng.shuffle(idx)
            # One gather per epoch, contiguous views per minibatch: the
            # minibatch at ``start`` is ``x[idx[start:start + mbs]]``.
            obs_e, act_e = obs[idx], actions[idx]
            logp_e, adv_e, ret_e = old_logp[idx], adv[idx], returns[idx]
            for start in range(0, n, mbs):
                end = start + mbs
                s = self._update_minibatch(
                    obs_e[start:end], act_e[start:end], logp_e[start:end],
                    adv_e[start:end], ret_e[start:end])
                for k in stats:
                    stats[k] += s[k]
                batches += 1
        for k in stats:
            stats[k] /= max(batches, 1)
        reg = get_registry()
        if reg:
            reg.inc("ppo.updates")
            reg.inc("ppo.transitions", n)
            for k, v in stats.items():
                reg.observe(f"ppo.{k}", v)
        self.updates += 1
        buf.clear()
        return stats

    def _update_minibatch(self, obs: np.ndarray, actions: np.ndarray,
                          old_logp: np.ndarray, adv: np.ndarray,
                          returns: np.ndarray) -> Dict[str, float]:
        cfg = self.config
        m = len(obs)
        rows = self._arange_cache.get(m)
        if rows is None:
            rows = self._arange_cache[m] = np.arange(m)

        # ---- actor -------------------------------------------------------
        logits = self.actor.forward(obs)
        probs = softmax(logits)
        logp_all = np.log(np.clip(probs, 1e-12, None))
        new_logp = logp_all[rows, actions]
        ratio = np.exp(new_logp - old_logp)
        unclipped = ratio * adv
        clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * adv
        surrogate = np.minimum(unclipped, clipped)
        policy_loss = -float(surrogate.mean())
        entropy = -(probs * logp_all).sum(axis=-1)

        # Gradient of -surrogate wrt logits. The min() picks the unclipped
        # branch whenever unclipped <= clipped; only that branch carries a
        # ratio gradient (the clipped branch is constant in theta when the
        # clip is active).
        use_unclipped = unclipped <= clipped
        coef = np.where(use_unclipped, ratio * adv, 0.0)
        # When the clipped branch is selected but the ratio is inside the
        # clip range, clip() is the identity and still differentiable.
        inside = (ratio >= 1.0 - cfg.clip_eps) & (ratio <= 1.0 + cfg.clip_eps)
        coef = np.where(~use_unclipped & inside, ratio * adv, coef)
        grad_logp = CategoricalPolicy.grad_log_prob_logits(probs, actions)
        grad_logits = -(coef[:, None] * grad_logp) / m
        # entropy bonus (maximize entropy -> subtract its gradient)
        grad_logits -= cfg.entropy_coef * CategoricalPolicy.grad_entropy_logits(probs) / m

        self.actor.zero_grad()
        self.actor.backward(grad_logits)
        clip_gradients(self.actor.gradients().values(), cfg.max_grad_norm)
        self.actor_opt.step()

        # ---- critic ------------------------------------------------------
        v = self.critic.forward(obs)[:, 0]
        value_loss = float(np.mean((v - returns) ** 2))
        grad_v = (2.0 * (v - returns) / m)[:, None]
        self.critic.zero_grad()
        self.critic.backward(grad_v)
        clip_gradients(self.critic.gradients().values(), cfg.max_grad_norm)
        self.critic_opt.step()

        approx_kl = approx_kl_k3(old_logp, new_logp)
        clip_frac = float(np.mean(np.abs(ratio - 1.0) > cfg.clip_eps))
        return {"policy_loss": policy_loss, "value_loss": value_loss,
                "entropy": float(entropy.mean()), "approx_kl": approx_kl,
                "clip_frac": clip_frac}

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> Dict[str, Dict[str, np.ndarray]]:
        return {"actor": self.actor.state_dict(),
                "critic": self.critic.state_dict()}

    def load_state_dict(self, state: Dict[str, Dict[str, np.ndarray]]) -> None:
        self.actor.load_state_dict(state["actor"])
        self.critic.load_state_dict(state["critic"])
