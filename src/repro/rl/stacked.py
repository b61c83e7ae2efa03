"""Batched cross-agent inference over stacked per-agent MLP weights.

IPPO agents share an architecture but never share parameters, so their
``A`` per-agent ``(in, out)`` weight matrices stack into one
``(A, in, out)`` tensor and a tick's ``A`` batch-1 forwards collapse
into a single stacked :func:`numpy.matmul` — one BLAS call instead of
``A`` Python round-trips per layer.

Two properties make this safe:

- **Bit-identity.**  Stacked 3-D ``matmul`` dispatches one GEMM per
  stack slice, so slice ``i`` of ``(A, 1, in) @ (A, in, out)`` is
  bit-identical to the per-agent ``(1, in) @ (in, out)`` product.  (We
  deliberately do *not* use ``np.einsum``: its blocked SIMD reduction
  changes float summation order and is NOT bit-identical to the
  per-agent matmul.)  Activations and bias adds are elementwise and
  therefore trivially identical.
- **Zero staleness.**  :class:`StackedMLPs` *adopts* the agents'
  parameters: after stacking, each agent's ``Linear.W``/``Linear.b`` is
  rebound to a view into the stacked tensor, so in-place optimizer
  steps and ``load_state_dict`` writes update the stacked weights with
  no re-sync step.

:class:`repro.rl.ippo.IPPOTrainer` builds every agent from one
``PPOConfig``, so its agents always stack; networks that diverge in
shape or activation raise :class:`StackingError`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence

import numpy as np

from repro.rl.nn import MLP, Linear

__all__ = ["StackingError", "StackedMLPs", "StackedAgents"]


class StackingError(ValueError):
    """Agent networks cannot be stacked (shape/activation mismatch)."""


def _check_stackable(mlps: Sequence[MLP]) -> None:
    if not mlps:
        raise StackingError("no networks to stack")
    ref = mlps[0]
    for mlp in mlps[1:]:
        if mlp.sizes != ref.sizes:
            raise StackingError(
                f"layer sizes diverge: {mlp.sizes} != {ref.sizes}")
        if getattr(mlp, "activation", None) != getattr(ref, "activation", None):
            raise StackingError("activations diverge")
        if len(mlp.layers) != len(ref.layers):
            raise StackingError("layer counts diverge")


class StackedMLPs:
    """``A`` same-shaped MLPs stacked for one batched forward.

    Parameters are adopted (see module docstring): the constructor copies
    each agent's weights into the stacked tensors and rebinds the
    per-agent ``Linear`` parameters to views into them, so the serial
    nets and the stack share storage forever after.
    """

    def __init__(self, mlps: Sequence[MLP]) -> None:
        _check_stackable(mlps)
        self.n = len(mlps)
        self.activation = getattr(mlps[0], "activation", "tanh")
        if self.activation not in ("tanh", "relu"):
            raise StackingError(f"unsupported activation {self.activation!r}")
        self.W: List[np.ndarray] = []   # each (A, in, out)
        self.b: List[np.ndarray] = []   # each (A, 1, out)
        linear_cols: List[List[Linear]] = []
        for li, layer in enumerate(mlps[0].layers):
            if not isinstance(layer, Linear):
                continue
            col = []
            for mlp in mlps:
                lin = mlp.layers[li]
                if not isinstance(lin, Linear) or lin.W.shape != layer.W.shape:
                    raise StackingError("linear layers diverge")
                col.append(lin)
            linear_cols.append(col)
        for col in linear_cols:
            W = np.stack([lin.W for lin in col])            # (A, in, out)
            b = np.stack([lin.b for lin in col])[:, None, :]  # (A, 1, out)
            # Adopt: rebind each agent's parameters to views into the
            # stack so in-place updates keep both coherent.
            for a, lin in enumerate(col):
                lin.W = W[a]
                lin.b = b[a, 0]
            self.W.append(W)
            self.b.append(b)
        for mlp in mlps:
            mlp.invalidate_param_cache()
        self.in_dim = int(mlps[0].sizes[0])
        self.out_dim = int(mlps[0].sizes[-1])

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batched forward: ``x`` is ``(A, in_dim)`` → ``(A, out_dim)``.

        Row ``i`` is bit-identical to ``mlps[i].forward(x[i:i+1])[0]``.
        """
        h = x[:, None, :]                       # (A, 1, in)
        last = len(self.W) - 1
        tanh = self.activation == "tanh"
        for li, (W, b) in enumerate(zip(self.W, self.b)):
            h = h @ W
            h += b
            if li != last:
                if tanh:
                    h = np.tanh(h)
                else:
                    h = np.where(h > 0, h, 0.0)
        return h[:, 0, :]


class StackedAgents:
    """Batched act/values over an :class:`IPPOTrainer`'s agents.

    The stack covers every agent in trainer order; calls taking a subset
    of agents leave the other rows as they were (stacked GEMMs are
    per-slice, so absent rows never affect present ones) and sample only
    the requested agents, replaying each agent's private RNG in exactly
    the per-agent call order.
    """

    def __init__(self, agents: Mapping[Hashable, "PPOAgent"]) -> None:  # noqa: F821
        self.ids: List[Hashable] = list(agents.keys())
        self.row: Dict[Hashable, int] = {aid: i for i, aid in enumerate(self.ids)}
        self._agents = list(agents.values())
        self.actor = StackedMLPs([a.actor for a in self._agents])
        self.critic = StackedMLPs([a.critic for a in self._agents])
        self._obs_buf = np.zeros((len(self.ids), self.actor.in_dim))

    def _gather_obs(self, observations: Mapping[Hashable, np.ndarray]) -> np.ndarray:
        buf = self._obs_buf
        for aid, obs in observations.items():
            buf[self.row[aid]] = obs
        return buf

    def act(self, observations: np.ndarray, rows: Optional[np.ndarray],
            epsilons: Optional[Sequence[float]], greedy: bool
            ) -> Dict[str, np.ndarray]:
        """Batched equivalent of the per-agent ``PPOAgent.act`` loop.

        ``observations[j]`` belongs to agent ``rows[j]`` (every agent, in
        trainer order, when ``rows`` is None) and is explored with
        ``epsilons[j]``.  Returns the ``action`` / ``log_prob`` /
        ``value`` columns, bit-identical per agent (same logits → same
        probabilities, and each agent's own generator is consumed in the
        same sequence as the serial path); a greedy call touches no
        generator and runs no per-agent Python at all.
        """
        x = observations
        if rows is not None:
            x = self._obs_buf
            x[rows] = observations
        probs = _softmax_rows(self.actor.forward(x))   # (A, n_actions)
        vals = self.critic.forward(x)[:, 0]
        if rows is not None:
            probs, vals = probs[rows], vals[rows]
        if greedy:
            actions = probs.argmax(axis=1)
        else:
            agents = (self._agents if rows is None
                      else [self._agents[i] for i in rows.tolist()])
            eps_of = epsilons if epsilons is not None else [0.0] * len(agents)
            actions = np.empty(len(agents), dtype=np.int64)
            for j, (agent, eps, p) in enumerate(zip(agents, eps_of, probs)):
                rng = agent.policy.rng
                if eps > 0.0 and rng.random() < eps:
                    actions[j] = rng.integers(p.shape[0])
                else:
                    # Inlined ``rng.choice(n, p=p)``: numpy's implementation
                    # normalizes the cumsum, draws one uniform, and
                    # right-searchsorts it — replicated verbatim (same
                    # single RNG draw, same floats), minus its per-call
                    # validation.
                    cdf = p.cumsum()
                    cdf /= cdf[-1]
                    actions[j] = cdf.searchsorted(rng.random(), side="right")
        chosen = probs[np.arange(len(actions)), actions]
        return {"action": actions,
                "log_prob": np.log(np.maximum(chosen, 1e-12)),
                "value": vals}

    def values(self, observations: Mapping[Hashable, np.ndarray]
               ) -> Dict[Hashable, float]:
        """Batched equivalent of per-agent ``PPOAgent.value`` calls."""
        x = self._gather_obs(observations)
        vals = self.critic.forward(x)
        return {aid: float(vals[self.row[aid], 0]) for aid in observations}

    def describe(self) -> Dict[str, object]:
        """JSON-safe summary of the stack (serve's ``/state`` reports it)."""
        return {
            "agents": len(self.ids),
            "obs_dim": self.actor.in_dim,
            "n_actions": self.actor.out_dim,
            "actor_layers": [list(W.shape[1:]) for W in self.actor.W],
            "critic_layers": [list(W.shape[1:]) for W in self.critic.W],
        }


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; row ``i`` bit-identical to
    ``softmax(z[i:i+1])[0]`` (all operations are row-local)."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
