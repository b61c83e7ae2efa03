"""One stacked learner for a fleet of independent PPO agents.

IPPO agents share an architecture but never parameters.  So ``A``
agents' actor and critic parameters, gradients and Adam moments are
packed ``(A, n)`` rows (:class:`PackedMLP`), their rollouts are
``(A, cap, …)`` arrays, and :class:`PPOLearner` owns both.  Every
agent's ``Linear.W/b/dW/db`` and its ``RolloutBuffer`` are views of its
row, so nothing is held twice.  The fleet's inference is one
``(A, 1, in) @ (A, in, out)`` matmul per layer, and its PPO update runs
GAE, the epochs and every minibatch's forward, backward, gradient clip
and Adam step as stacked ``(A, m, ·)`` calls.

**Bit-identity.**  Slice ``a`` of every stacked call computes what the
plain per-agent 2-D update computes for agent ``a``
(``tests/test_ppo.py`` holds the learner to that oracle byte for byte):

- stacked ``matmul`` picks gemm, gemv or dot *per slice*, from the
  slice's shape and strides, exactly as for the 2-D product;
- ufuncs are elementwise, and a reduction over an axis adds in the
  same order whatever leading axes surround it;
- the clip norm's ``(A, 1, n) @ (A, n, 1)`` is NumPy's per-slice dot,
  the same routine as the plain ``np.dot(flat, flat)``.  ``np.einsum``
  and ``(g * g).sum`` are not: both re-associate the sum.

**Threads.**  Stacked calls are big enough to release the GIL, so an
update splits its agents into one group per usable core
(:func:`repro.parallel.usable_cores`, which inside an
``Engine(workers=N)`` worker is that worker's share) once there are at
least :data:`MIN_AGENTS_PER_GROUP` agents per group, and each group into
stacked calls of at most :data:`MAX_STACK` agents.  The groups run on
threads started and joined inside :meth:`PPOLearner.update`; every RNG
draw, registry counter and tracer span stays on the calling thread.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.obs.metrics import get_registry
from repro.parallel.engine import usable_cores
from repro.rl.gae import compute_gae
from repro.rl.nn import MLP, Linear
from repro.rl.optim import adam_direction
from repro.rl.policy import CategoricalPolicy, softmax

if TYPE_CHECKING:  # pragma: no cover
    from repro.rl.ppo import PPOAgent

__all__ = ["StackingError", "PackedMLP", "RolloutBuffer", "PPOLearner",
           "MIN_AGENTS_PER_GROUP", "MAX_STACK"]

#: Fewest agents an update thread is given.  Below it a second group
#: costs more in per-call overhead than it wins in parallel work:
#: ``benchmarks/scale/update_cost.py`` has two groups even at 8 agents
#: and ahead at 12 on a 2-core Xeon, so a Fig. 4 fabric's 6 agents
#: train on one thread and ``train_fleet32``'s 32 on two.
MIN_AGENTS_PER_GROUP = 6
#: Most agents one stacked call holds: a larger group trains its agents
#: in chunks of at most this many, one after another.  The cost per
#: agent is flat from 16 to 416 agents, the minibatch temporaries are
#: not, so this bounds memory at no cost in speed.
MAX_STACK = 16

#: the rollout columns and their dtypes, each ``(A, cap)`` but ``obs``
#: ``(A, cap, obs_dim)``
_ROLLOUT_FIELDS = (("obs", np.float64), ("actions", np.int64),
                   ("rewards", np.float64), ("dones", bool),
                   ("log_probs", np.float64), ("values", np.float64),
                   ("truncateds", bool), ("bootstraps", np.float64))
#: Adam's constants (PyTorch's defaults, as :class:`repro.rl.optim.Adam`)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
_STATS = ("policy_loss", "value_loss", "entropy", "approx_kl", "clip_frac")


class StackingError(ValueError):
    """Agents cannot share one learner (architecture or config mismatch)."""


class PackedMLP:
    """``A`` same-shaped tanh MLPs as packed rows.

    Row ``a`` of :attr:`params` is agent ``a``'s ``W0, b0, W1, b1, …``
    raveled in ``MLP.parameters()`` order; :attr:`grads` and Adam's
    moments :attr:`m` and :attr:`v` share that layout.  The constructor
    copies each network's weights into its row and rebinds its
    ``Linear`` arrays to views of the row.
    """

    def __init__(self, mlps: Sequence[MLP]) -> None:
        ref = mlps[0]
        #: per linear layer: (layer index, in, out, W offset, b offset)
        self.layout = []
        off = 0
        for li, layer in enumerate(ref.layers):
            if isinstance(layer, Linear):
                i, o = layer.W.shape
                self.layout.append((li, i, o, off, off + i * o))
                off += i * o + o
        shape = (len(mlps), off)
        self.params = np.empty(shape)
        self.grads = np.zeros(shape)
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        for a, mlp in enumerate(mlps):
            if mlp.sizes != ref.sizes or mlp.activation != "tanh":
                raise StackingError(
                    f"networks diverge: {mlp.sizes}/{mlp.activation} "
                    f"!= {ref.sizes}/tanh")
            for li, i, o, w, b in self.layout:
                lin = mlp.layers[li]
                self.params[a, w:b] = lin.W.ravel()
                self.params[a, b:b + o] = lin.b
                lin.W = self.params[a, w:b].reshape(i, o)
                lin.b = self.params[a, b:b + o]
                lin.dW = self.grads[a, w:b].reshape(i, o)
                lin.db = self.grads[a, b:b + o]
            mlp.invalidate_param_cache()
        self.in_dim, self.out_dim = ref.sizes[0], ref.sizes[-1]

    def layers(self, flat: np.ndarray) -> List[tuple]:
        """``(W, b)`` per layer, ``(A', in, out)`` and ``(A', 1, out)``
        views of the packed rows ``flat`` (``params`` or ``grads`` rows)."""
        n = len(flat)
        return [(flat[:, w:b].reshape(n, i, o), flat[:, b:b + o][:, None])
                for _, i, o, w, b in self.layout]

    @staticmethod
    def forward(x: np.ndarray, layers: List[tuple],
                inputs: Optional[list] = None) -> np.ndarray:
        """``(A', m, in)`` → ``(A', m, out)``; ``inputs`` collects each
        layer's input for :meth:`backward`."""
        last = len(layers) - 1
        for k, (W, b) in enumerate(layers):
            if inputs is not None:
                inputs.append(x)
            x = x @ W
            x += b
            if k != last:
                x = np.tanh(x)
        return x

    @staticmethod
    def backward(g: np.ndarray, layers: List[tuple], dlayers: List[tuple],
                 inputs: list) -> None:
        """Write the gradients of the loss whose gradient at the output is
        ``g`` into ``dlayers`` (views of the ``grads`` rows)."""
        for k in range(len(layers) - 1, -1, -1):
            x = inputs[k]
            dW, db = dlayers[k]
            np.matmul(x.transpose(0, 2, 1), g, out=dW)
            g.sum(axis=1, out=db[:, 0])
            if k:
                g = g @ layers[k][0].transpose(0, 2, 1)
                g = g * (1.0 - x * x)            # x is tanh's output

    def clip(self, grads: np.ndarray, max_norm: float) -> None:
        """Scale each row so its global L2 norm is at most ``max_norm``:
        per parameter array a per-slice dot, summed in parameter order."""
        sq = 0.0
        for _, _, o, w, b in self.layout:
            for part in (grads[:, w:b], grads[:, b:b + o]):
                sq = sq + (part[:, None, :] @ part[:, :, None])[:, 0, 0]
        total = np.sqrt(sq)
        over = total > max_norm
        if max_norm > 0 and over.any():
            grads *= np.divide(max_norm, total, out=np.ones_like(total),
                               where=over)[:, None]


class _Rows:
    """One network's packed arrays for some agents: views of a
    contiguous run of rows, else copies that :meth:`store` writes back."""

    def __init__(self, net: PackedMLP, sel, lr: float) -> None:
        self.net, self.sel, self.lr = net, sel, lr
        self.params, self.grads = net.params[sel], net.grads[sel]
        self.m, self.v = net.m[sel], net.v[sel]
        self.layers = net.layers(self.params)
        self.dlayers = net.layers(self.grads)
        self.scratch = (np.empty_like(self.params),
                        np.empty_like(self.params))

    def adam(self, b1t: np.ndarray, b2t: np.ndarray) -> None:
        self.params -= adam_direction(self.grads, self.m, self.v, b1t, b2t,
                                      self.lr, _BETA1, _BETA2, _EPS,
                                      *self.scratch)

    def store(self) -> None:
        if not isinstance(self.sel, slice):
            for name in ("params", "grads", "m", "v"):
                getattr(self.net, name)[self.sel] = getattr(self, name)


class RolloutBuffer:
    """One agent's on-policy trajectory since its last update: a row
    view of its :class:`PPOLearner`'s rollout arrays.

    ``truncateds[t]`` distinguishes a time-limit cut-off from a true
    terminal state; ``bootstraps[t]`` carries ``V`` of the successor
    state for truncated steps (0 elsewhere) so GAE can bootstrap through
    the boundary (see :func:`repro.rl.gae.compute_gae`).  The columns
    (``obs``, ``actions``, ``rewards``, ``dones``, ``log_probs``,
    ``values``, ``truncateds``, ``bootstraps``) read as arrays of the
    stored length.
    """

    def __init__(self, learner: "PPOLearner", row: int) -> None:
        self._learner, self._row = learner, row

    def add(self, obs: np.ndarray, action: int, reward: float, done: bool,
            log_prob: float, value: float, *, truncated: bool = False,
            bootstrap_value: float = 0.0) -> None:
        self._learner.record(self._row, np.ravel(obs), action, reward, done,
                             log_prob, value, truncated, bootstrap_value)

    def __len__(self) -> int:
        return int(self._learner.length[self._row])

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in dict(_ROLLOUT_FIELDS):
            raise AttributeError(name)
        return getattr(self._learner, name)[self._row, :len(self)]

    def clear(self) -> None:
        self._learner.length[self._row] = 0


class PPOLearner:
    """The packed networks, Adam moments and rollouts of ``A`` PPO agents.

    Built from fresh :class:`~repro.rl.ppo.PPOAgent` objects that share
    one :class:`~repro.rl.ppo.PPOConfig` up to the seed (each keeps its
    own generator); the agents become views of rows ``0..A-1``.  A lone
    ``PPOAgent`` is the one-row case.
    """

    def __init__(self, agents: Sequence["PPOAgent"]) -> None:
        agents = list(agents)
        cfg = replace(agents[0].config, seed=None)
        for agent in agents:
            if replace(agent.config, seed=None) != cfg:
                raise StackingError("agents' configs diverge")
            old = getattr(agent, "learner", None)
            if old is not None and (old.length[agent.row]
                                    or old.steps[agent.row]):
                raise ValueError("only fresh agents can join a learner")
        self.config = cfg
        #: each agent's generator (the learner holds no agent: an agent
        #: points at its learner, and a cycle would outlive its owner
        #: until the next full garbage collection)
        self.rngs = [a.rng for a in agents]
        self.actor = PackedMLP([a.actor for a in agents])
        self.critic = PackedMLP([a.critic for a in agents])
        n = len(agents)
        #: Adam steps and completed updates per agent
        self.steps = np.zeros(n, dtype=np.int64)
        self.updates = np.zeros(n, dtype=np.int64)
        #: transitions stored per agent
        self.length = np.zeros(n, dtype=np.int64)
        self._alloc_rollout(0)
        self._actor_layers = self.actor.layers(self.actor.params)
        self._critic_layers = self.critic.layers(self.critic.params)
        self._obs_buf = np.zeros((n, cfg.obs_dim))
        for row, agent in enumerate(agents):
            agent.learner, agent.row = self, row
            agent.buffer = RolloutBuffer(self, row)

    # -- rollouts ------------------------------------------------------------
    def _alloc_rollout(self, cap: int) -> None:
        n, old = len(self.rngs), getattr(self, "obs", None)
        for name, dtype in _ROLLOUT_FIELDS:
            shape = ((n, cap, self.config.obs_dim) if name == "obs"
                     else (n, cap))
            new = np.zeros(shape, dtype=dtype)
            if old is not None:
                prev = getattr(self, name)
                new[:, :prev.shape[1]] = prev
            setattr(self, name, new)
        self.cap = cap

    def record(self, rows, obs, action, reward, done, log_prob, value,
               truncated=False, bootstrap=0.0) -> None:
        """Append one transition to each agent in ``rows`` — an int or an
        array of distinct rows, with one value (or row of ``obs``) each.
        ``done`` is stored as ``done or truncated``."""
        pos = self.length[rows]
        top = int(np.max(pos))
        if top >= self.cap:
            self._alloc_rollout(max(2 * self.cap, top + 1, 64))
        self.obs[rows, pos] = obs
        self.actions[rows, pos] = action
        self.rewards[rows, pos] = reward
        self.dones[rows, pos] = np.logical_or(done, truncated)
        self.log_probs[rows, pos] = log_prob
        self.values[rows, pos] = value
        self.truncateds[rows, pos] = truncated
        self.bootstraps[rows, pos] = bootstrap
        self.length[rows] = pos + 1

    # -- inference -----------------------------------------------------------
    def act(self, observations: np.ndarray, rows: Optional[np.ndarray],
            epsilons: Optional[Sequence[float]], greedy: bool
            ) -> Dict[str, np.ndarray]:
        """Batched equivalent of the per-agent ``PPOAgent.act`` loop.

        ``observations[j]`` belongs to agent ``rows[j]`` (every agent, in
        row order, when ``rows`` is None) and is explored with
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
        h = x[:, None, :]
        probs = softmax(PackedMLP.forward(h, self._actor_layers)[:, 0])
        vals = PackedMLP.forward(h, self._critic_layers)[:, 0, 0]
        if rows is not None:
            probs, vals = probs[rows], vals[rows]
        if greedy:
            actions = probs.argmax(axis=1)
        else:
            rngs = (self.rngs if rows is None
                    else [self.rngs[i] for i in rows.tolist()])
            eps_of = epsilons if epsilons is not None else [0.0] * len(rngs)
            actions = np.empty(len(rngs), dtype=np.int64)
            for j, (rng, eps, p) in enumerate(zip(rngs, eps_of, probs)):
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

    def critic_values(self, rows: np.ndarray, observations: np.ndarray
                      ) -> np.ndarray:
        """Critic values of agents ``rows`` at ``observations`` (one row
        each), in one stacked forward."""
        x = self._obs_buf
        x[rows] = observations
        h = PackedMLP.forward(x[:, None, :], self._critic_layers)
        return h[rows, 0, 0]

    def describe(self) -> Dict[str, object]:
        """JSON-safe summary of the stack (serve's ``/state`` reports it)."""
        return {
            "agents": len(self.rngs),
            "obs_dim": self.actor.in_dim,
            "n_actions": self.actor.out_dim,
            "actor_layers": [[i, o] for _, i, o, _, _ in self.actor.layout],
            "critic_layers": [[i, o] for _, i, o, _, _ in self.critic.layout],
        }

    # -- learning ------------------------------------------------------------
    def update(self, rows: np.ndarray, last_obs: Optional[np.ndarray] = None,
               has_last: Optional[np.ndarray] = None
               ) -> List[Dict[str, float]]:
        """One PPO update of each agent in ``rows`` on its own rollout.

        ``last_obs[j]`` is the observation after agent ``rows[j]``'s
        rollout (where ``has_last[j]``, default everywhere): a rollout
        that does not end on a termination bootstraps ``V`` of it.
        Agents group by rollout length; each group runs GAE and its
        epochs as stacked calls, split over threads (module docstring).
        An agent with an empty rollout is skipped and draws nothing.
        Returns each agent's mean policy loss, value loss, entropy,
        approximate KL and clip fraction, in ``rows`` order.
        """
        rows = np.asarray(rows, dtype=np.int64)
        lengths = self.length[rows]
        has = np.zeros(len(rows), dtype=bool)
        boot = np.zeros(len(rows))
        if last_obs is not None:
            has[:] = True if has_last is None else has_last
            if has.any():
                boot[has] = self.critic_values(rows[has], last_obs[has])
        cores = usable_cores()
        jobs: List[tuple] = []
        for T in sorted(set(lengths[lengths > 0].tolist())):
            at = lengths == T
            jobs += self._group_jobs(rows[at], T, boot[at], has[at], cores)
        n_live = int(np.count_nonzero(lengths))
        hands = _deal(jobs, min(cores, n_live // MIN_AGENTS_PER_GROUP))
        trained = _run_threads([
            lambda hand=hand: [(job[0], self._train(*job)) for job in hand]
            for hand in hands])
        stats_of: Dict[int, Dict[str, float]] = {}
        for group_rows, stats in (pair for hand in trained for pair in hand):
            for r, s in zip(group_rows.tolist(), stats.T.tolist()):
                stats_of[r] = dict(zip(_STATS, s))
        done, n_done = rows[lengths > 0], lengths[lengths > 0]
        self.updates[done] += 1
        self.length[done] = 0
        reg = get_registry()
        if reg:
            if hands:
                reg.observe("ppo.update_groups", len(hands))
            for r, n in zip(done.tolist(), n_done.tolist()):
                reg.inc("ppo.updates")
                reg.inc("ppo.transitions", n)
                for k, v in stats_of[r].items():
                    reg.observe(f"ppo.{k}", v)
        zero = dict.fromkeys(_STATS, 0.0)
        return [stats_of.get(r, zero) for r in rows.tolist()]

    def _group_jobs(self, rows: np.ndarray, T: int, boot: np.ndarray,
                    has: np.ndarray, cores: int) -> List[tuple]:
        """GAE and the epoch shuffles of agents ``rows`` (rollout length
        ``T``), cut into at most ``cores`` groups of at least
        :data:`MIN_AGENTS_PER_GROUP` and those into chunks of at most
        :data:`MAX_STACK`: one job ``(rows, T, perms, adv, returns)``
        per chunk.  Runs on the calling thread, drawing from each
        agent's generator in row order."""
        cfg = self.config
        dones = self.dones[rows, T - 1]
        trunc = self.truncateds[rows, T - 1]
        # bootstrap V(s_T) when the rollout is cut off rather than
        # terminated: a time-limit boundary is not an absorbing state
        lv = np.where(has & (~dones | trunc), boot, 0.0)
        bs = self.bootstraps[rows, :T]
        last = bs[:, -1]
        bs[:, -1] = np.where(trunc & (last == 0.0), lv, last)
        adv, ret = compute_gae(self.rewards[rows, :T], self.values[rows, :T],
                               self.dones[rows, :T], lv, cfg.gamma,
                               cfg.gae_lambda,
                               truncateds=self.truncateds[rows, :T],
                               bootstrap_values=bs)
        if cfg.normalize_advantages and T > 1:
            adv = ((adv - adv.mean(axis=1, keepdims=True))
                   / (adv.std(axis=1, keepdims=True) + 1e-8))
        perms = np.empty((len(rows), cfg.epochs, T), dtype=np.intp)
        for j, r in enumerate(rows.tolist()):
            idx = np.arange(T)
            rng = self.rngs[r]
            for e in range(cfg.epochs):
                rng.shuffle(idx)
                perms[j, e] = idx
        groups = max(1, min(cores, len(rows) // MIN_AGENTS_PER_GROUP))
        chunks = groups * -(-len(rows) // (groups * MAX_STACK))
        return [(rows[part], T, perms[part], adv[part], ret[part])
                for part in np.array_split(np.arange(len(rows)), chunks)]

    def _train(self, rows: np.ndarray, T: int, perms: np.ndarray,
               adv: np.ndarray, returns: np.ndarray) -> np.ndarray:
        """The PPO epochs of one group; returns its ``(5, A')`` mean
        stats.  Touches only its own rows, so groups run concurrently."""
        cfg = self.config
        sel = (slice(rows[0], rows[-1] + 1)
               if rows[-1] - rows[0] + 1 == len(rows) else rows)
        nets = (_Rows(self.actor, sel, cfg.actor_lr),
                _Rows(self.critic, sel, cfg.critic_lr))
        steps = self.steps[sel].copy()
        obs, actions = self.obs[sel, :T], self.actions[sel, :T]
        old_logp = self.log_probs[sel, :T]
        at = np.arange(len(rows))[:, None]
        stats = np.zeros((len(_STATS), len(rows)))
        batches = 0
        mbs = cfg.minibatch_size
        for e in range(cfg.epochs):
            p = perms[:, e]
            # one gather per epoch, contiguous views per minibatch
            obs_e, act_e, logp_e = obs[at, p], actions[at, p], old_logp[at, p]
            adv_e, ret_e = adv[at, p], returns[at, p]
            for start in range(0, T, mbs):
                end = start + mbs
                steps += 1
                stats += self._minibatch(
                    nets, steps, obs_e[:, start:end], act_e[:, start:end],
                    logp_e[:, start:end], adv_e[:, start:end],
                    ret_e[:, start:end])
                batches += 1
        for net in nets:
            net.store()
        self.steps[sel] = steps
        return stats / batches

    def _minibatch(self, nets: tuple, steps: np.ndarray, obs: np.ndarray,
                   actions: np.ndarray, old_logp: np.ndarray,
                   adv: np.ndarray, returns: np.ndarray) -> np.ndarray:
        """One clipped-surrogate (Eq. 11) and value (Eq. 12) step of every
        agent in the group on its ``(A', m, ·)`` minibatch."""
        cfg = self.config
        actor, critic = nets
        m = actions.shape[1]
        ts = steps.tolist()
        b1t = np.array([1.0 - _BETA1 ** t for t in ts])[:, None]
        b2t = np.array([1.0 - _BETA2 ** t for t in ts])[:, None]

        # ---- actor -------------------------------------------------------
        inputs: list = []
        probs = softmax(PackedMLP.forward(obs, actor.layers, inputs))
        logp_all = np.log(np.clip(probs, 1e-12, None))
        new_logp = np.take_along_axis(logp_all, actions[..., None], -1)[..., 0]
        ratio = np.exp(new_logp - old_logp)
        lo, hi = 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps
        unclipped = ratio * adv
        clipped = np.clip(ratio, lo, hi) * adv
        policy_loss = -np.minimum(unclipped, clipped).mean(axis=1)
        entropy = -(probs * logp_all).sum(axis=-1)
        # d(-surrogate)/d logits: the min() picks the unclipped branch
        # when unclipped <= clipped — always so inside the clip range,
        # where clip() is the identity; elsewhere the clipped branch is
        # constant in theta
        coef = np.where(unclipped <= clipped, unclipped, 0.0)
        grad_logp = CategoricalPolicy.grad_log_prob_logits(probs, actions)
        grad = -(coef[..., None] * grad_logp) / m
        # entropy bonus (maximize entropy -> subtract its gradient)
        grad -= cfg.entropy_coef * CategoricalPolicy.grad_entropy_logits(probs) / m
        PackedMLP.backward(grad, actor.layers, actor.dlayers, inputs)
        self.actor.clip(actor.grads, cfg.max_grad_norm)
        actor.adam(b1t, b2t)

        # ---- critic ------------------------------------------------------
        inputs = []
        v = PackedMLP.forward(obs, critic.layers, inputs)[..., 0]
        value_loss = ((v - returns) ** 2).mean(axis=1)
        grad_v = (2.0 * (v - returns) / m)[..., None]
        PackedMLP.backward(grad_v, critic.layers, critic.dlayers, inputs)
        self.critic.clip(critic.grads, cfg.max_grad_norm)
        critic.adam(b1t, b2t)

        log_ratio = new_logp - old_logp
        approx_kl = ((ratio - 1.0) - log_ratio).mean(axis=1)   # k3
        clip_frac = (np.abs(ratio - 1.0) > cfg.clip_eps).mean(axis=1)
        return np.stack([policy_loss, value_loss, entropy.mean(axis=1),
                         approx_kl, clip_frac])


def _deal(jobs: list, n: int) -> List[list]:
    """``jobs`` dealt round-robin into at most ``n`` (at least one)
    non-empty hands."""
    n = min(max(n, 1), len(jobs))
    return [jobs[i::n] for i in range(n)]


def _run_threads(work: Sequence[Callable[[], object]]) -> list:
    """Run ``work[0]`` here and every other callable on a thread of its
    own; the results in ``work`` order.  Every thread is joined before
    the call returns or raises the first failure."""
    with ThreadPoolExecutor(max(len(work) - 1, 1),
                            thread_name_prefix="ppo-update") as pool:
        rest = [pool.submit(w) for w in work[1:]]
        first = [w() for w in work[:1]]
        return first + [f.result() for f in rest]
