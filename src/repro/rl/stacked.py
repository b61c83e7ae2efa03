"""The one MLP of :mod:`repro.rl`, and one stacked PPO learner for a
fleet of independent agents.

:class:`PackedMLP` holds ``A`` same-shaped MLPs as packed ``(A, n)``
rows of parameters, gradients and Adam moments; weights are drawn
straight into the rows.  Its forward, backward, gradient clip and (via
:class:`Rows`) Adam step run on any run of rows as stacked
``(A', m, ·)`` calls.  PPO uses tanh rows (:class:`PPOLearner`), ACC's
Double DQN a one-row ReLU network (:mod:`repro.rl.ddqn`).

IPPO agents share an architecture but never parameters.  So
:class:`PPOLearner` packs ``A`` agents' actor and critic as rows and
their rollouts as ``(A, cap, …)`` arrays.  The fleet's inference is one
``(A, 1, in) @ (A, in, out)`` matmul per layer, and its PPO update runs
GAE, the epochs and every minibatch's forward, backward, gradient clip
and Adam step as stacked calls.  A lone agent is a learner of one row.

**Bit-identity.**  Slice ``a`` of every stacked call computes what a
plain per-agent 2-D loop computes for agent ``a`` (``tests/test_ppo.py``
holds the learner to such a loop byte for byte):

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

**Memory.**  A group writes its epoch gathers, every minibatch's
``(A', m, ·)`` temporaries and Adam's scratch into one
:class:`Workspace`, made when the group starts training and dropped when
it returns: an update touches few fresh pages, and nothing it allocates
stays resident until the next.  Each operation is the ufunc it was on
fresh arrays, with the same operands in the same order, so no result
changes a bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.obs.metrics import get_registry
from repro.parallel.engine import usable_cores
from repro.rl.gae import compute_gae
from repro.rl.optim import adam_direction
from repro.rl.policy import softmax

if TYPE_CHECKING:  # pragma: no cover
    from repro.rl.ppo import PPOConfig

__all__ = ["StackingError", "PackedMLP", "Rows", "Workspace", "PPOLearner", "sample",
           "grad_log_prob_logits", "grad_entropy_logits", "MIN_AGENTS_PER_GROUP",
           "MAX_STACK"]

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
#: Adam's constants (PyTorch's defaults)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
_STATS = ("policy_loss", "value_loss", "entropy", "approx_kl", "clip_frac")


class StackingError(ValueError):
    """Agents cannot share one learner (architecture or config mismatch)."""


class PackedMLP:
    """``A`` same-shaped MLPs with a linear head, as packed rows.

    Row ``a`` of :attr:`params` is network ``a``'s ``W0, b0, W1, b1, …``
    raveled; :attr:`grads` and Adam's moments :attr:`m` and :attr:`v`
    share that layout.  Each row's weights are drawn from its own
    generator in ``rngs``, layer by layer, uniform in
    ``±sqrt(6 / (in + out))`` (the head's scaled by ``out_scale``, small
    for a policy head so it starts near uniform); biases start at 0.

    Parameters
    ----------
    sizes:
        ``[in_dim, hidden..., out_dim]``.
    rngs:
        One generator per row.
    activation:
        ``"tanh"`` (PPO) or ``"relu"`` (DDQN), between linear layers.
    """

    def __init__(self, sizes: Sequence[int], rngs: Sequence[np.random.Generator],
                 *, activation: str = "tanh", out_scale: float = 1.0) -> None:
        sizes = tuple(int(n) for n in sizes)
        if len(sizes) < 2:
            raise ValueError("an MLP needs at least input and output sizes")
        if min(sizes) <= 0:
            raise ValueError("MLP layer widths must be positive")
        if activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation
        self.in_dim, self.out_dim = sizes[0], sizes[-1]
        #: per linear layer: (in, out, W offset, b offset)
        self.layout: List[Tuple[int, int, int, int]] = []
        off = 0
        for i, o in zip(sizes, sizes[1:]):
            self.layout.append((i, o, off, off + i * o))
            off += i * o + o
        shape = (len(rngs), off)
        self.params = np.zeros(shape)
        self.grads = np.zeros(shape)
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        head = len(self.layout) - 1
        for row, rng in zip(self.params, rngs):
            for k, (i, o, w, b) in enumerate(self.layout):
                limit = np.sqrt(6.0 / (i + o))
                scale = out_scale if k == head else 1.0
                row[w:b] = (rng.uniform(-limit, limit, size=(i, o))
                            * scale).ravel()

    def layers(self, flat: np.ndarray) -> List[tuple]:
        """``(W, b)`` per layer, ``(A', in, out)`` and ``(A', 1, out)``
        views of the packed rows ``flat`` (``params`` or ``grads`` rows)."""
        n = len(flat)
        return [(flat[:, w:b].reshape(n, i, o), flat[:, b:b + o][:, None])
                for i, o, w, b in self.layout]

    def forward(self, x: np.ndarray, layers: List[tuple],
                inputs: Optional[list] = None,
                ws: Optional["Workspace"] = None) -> np.ndarray:
        """``(A', m, in)`` → ``(A', m, out)``; ``inputs`` collects each
        layer's input for :meth:`backward`.  Each layer's output is a new
        array, or with ``ws`` its buffer ``("h", layer, width)``."""
        last = len(layers) - 1
        for k, (W, b) in enumerate(layers):
            if inputs is not None:
                inputs.append(x)
            out = None if ws is None else ws(
                ("h", k, W.shape[-1]), x.shape[:-1] + W.shape[-1:])
            x = np.matmul(x, W, out=out)
            x += b
            if k != last:
                if self.activation == "tanh":
                    np.tanh(x, out=x)
                else:
                    np.copyto(x, 0.0, where=~(x > 0))
        return x

    def backward(self, g: np.ndarray, layers: List[tuple],
                 dlayers: List[tuple], inputs: list,
                 ws: Optional["Workspace"] = None) -> None:
        """Write the gradients of the loss whose gradient at the output is
        ``g`` into ``dlayers`` (views of the ``grads`` rows).

        Consumes ``inputs``: once a layer's gradients are written, its
        input activation is overwritten by the activation's derivative.
        The gradient passed down is a new array, or with ``ws`` one of
        the two buffers ``("g", 0)`` and ``("g", 1)`` in turn."""
        for k in range(len(layers) - 1, -1, -1):
            x = inputs[k]                # the activation's output
            dW, db = dlayers[k]
            np.matmul(x.transpose(0, 2, 1), g, out=dW)
            g.sum(axis=1, out=db[:, 0])
            if k:
                g = np.matmul(g, layers[k][0].transpose(0, 2, 1),
                              out=None if ws is None else ws(("g", k % 2),
                                                             x.shape))
                if self.activation == "tanh":
                    np.multiply(x, x, out=x)
                    np.subtract(1.0, x, out=x)           # 1 - tanh**2
                    g *= x
                else:
                    g *= x > 0

    def clip(self, grads: np.ndarray, max_norm: float) -> np.ndarray:
        """Scale each row so its global L2 norm is at most ``max_norm``
        (0 disables): per parameter array a per-slice dot, summed in
        parameter order.  Returns the pre-clip norms."""
        sq = 0.0
        for _, o, w, b in self.layout:
            for part in (grads[:, w:b], grads[:, b:b + o]):
                sq = sq + (part[:, None, :] @ part[:, :, None])[:, 0, 0]
        total = np.sqrt(sq)
        over = total > max_norm
        if max_norm > 0 and over.any():
            grads *= np.divide(max_norm, total, out=np.ones_like(total),
                               where=over)[:, None]
        return total

    # -- checkpoints -----------------------------------------------------
    def state_dict(self, row: int) -> Dict[str, np.ndarray]:
        """Copies of row ``row``'s ``{"layer0.W", "layer0.b", "layer2.W",
        …}``: layer ``2k`` is linear layer ``k`` (checkpoints number the
        activations too)."""
        out: Dict[str, np.ndarray] = {}
        for k, (W, b) in enumerate(self.layers(self.params[row:row + 1])):
            out[f"layer{2 * k}.W"] = W[0].copy()
            out[f"layer{2 * k}.b"] = b[0, 0].copy()
        return out

    def load_state_dict(self, row: int, state: Dict[str, np.ndarray]) -> None:
        """Write ``state`` (a :meth:`state_dict`) into row ``row``; a
        checkpoint is outside input, so its keys and every shape are
        checked before anything is written."""
        want = self.state_dict(row)
        if set(state) != set(want):
            raise ValueError("state dict keys do not match the network")
        for key, v in want.items():
            if np.shape(state[key]) != v.shape:
                raise ValueError(f"shape mismatch for {key}")
        for k, (W, b) in enumerate(self.layers(self.params[row:row + 1])):
            W[0] = state[f"layer{2 * k}.W"]
            b[0, 0] = state[f"layer{2 * k}.b"]


class Workspace:
    """Flat buffers that a run of stacked calls writes its temporaries
    into, so repeated calls reuse the same memory.  ``ws(key, shape)``
    is a C-contiguous leading view of buffer ``key``, which is replaced
    by a larger one when ``shape`` does not fit: sized by its first and
    largest use, a smaller use (a short last minibatch) is a prefix."""

    def __init__(self) -> None:
        self._bufs: Dict[object, np.ndarray] = {}

    def __call__(self, key: object, shape: Tuple[int, ...],
                 dtype=np.float64) -> np.ndarray:
        n = math.prod(shape)
        buf = self._bufs.get(key)
        if buf is None or buf.size < n or buf.dtype != dtype:
            buf = self._bufs[key] = np.empty(n, dtype)
        return buf[:n].reshape(shape)


class Rows:
    """One network's packed arrays for the rows ``sel``: views when
    ``sel`` is a slice, else copies that :meth:`store` writes back; what
    a forward, backward, clip and Adam step at rate ``lr`` work on.
    ``ws`` (default a workspace of its own) holds Adam's scratch; the
    actor and critic of an update group share one."""

    def __init__(self, net: PackedMLP, sel, lr: float,
                 ws: Optional[Workspace] = None) -> None:
        self.net, self.sel, self.lr = net, sel, lr
        self.params, self.grads = net.params[sel], net.grads[sel]
        self.m, self.v = net.m[sel], net.v[sel]
        self.layers = net.layers(self.params)
        self.dlayers = net.layers(self.grads)
        self.ws = Workspace() if ws is None else ws

    def adam(self, steps: Sequence[int]) -> None:
        """One Adam step of every row, row ``j`` taking its
        ``steps[j]``-th; the step is formed in the gradient rows."""
        b1t = np.array([1.0 - _BETA1 ** t for t in steps])[:, None]
        b2t = np.array([1.0 - _BETA2 ** t for t in steps])[:, None]
        self.params -= adam_direction(self.grads, self.m, self.v, b1t, b2t,
                                      self.lr, _BETA1, _BETA2, _EPS,
                                      self.ws("adam", self.params.shape))

    def store(self) -> None:
        if not isinstance(self.sel, slice):
            for name in ("params", "grads", "m", "v"):
                getattr(self.net, name)[self.sel] = getattr(self, name)


def sample(probs: np.ndarray, rngs: Optional[Sequence[np.random.Generator]],
           epsilons: Optional[Sequence[float]] = None
           ) -> Tuple[np.ndarray, np.ndarray]:
    """One action per row of ``probs`` and its log-probability under
    ``probs`` (ignoring the epsilon mixing, as is standard for
    epsilon-assisted on-policy exploration).

    ``rngs`` None is greedy: the argmax, touching no generator.  Else row
    ``j`` draws from ``rngs[j]``: uniformly with probability
    ``epsilons[j]`` (default 0), otherwise from ``probs[j]``.
    """
    if rngs is None:
        actions = probs.argmax(axis=1)
    else:
        eps_of = epsilons if epsilons is not None else [0.0] * len(rngs)
        n = probs.shape[1]
        uniform = np.full(len(rngs), -1, dtype=np.int64)
        u = np.zeros(len(rngs))
        # each row's generator draws what ``rng.choice`` would, in row
        # order: the epsilon test, then a uniform action or one uniform
        for j, (rng, eps) in enumerate(zip(rngs, eps_of)):
            if eps > 0.0 and rng.random() < eps:
                uniform[j] = rng.integers(n)
            else:
                u[j] = rng.random()
        # numpy's ``choice(n, p=p)`` normalizes the cumsum and
        # right-searchsorts its uniform: over a non-decreasing cdf, the
        # count of entries <= u (same floats, same draw, all rows at once)
        cdf = probs.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        actions = np.count_nonzero(cdf <= u[:, None], axis=1)
        np.copyto(actions, uniform, where=uniform >= 0)
    chosen = probs[np.arange(len(actions)), actions]
    return actions, np.log(np.maximum(chosen, 1e-12))


def grad_log_prob_logits(probs: np.ndarray, actions: np.ndarray,
                         out: Optional[np.ndarray] = None) -> np.ndarray:
    """d log pi(a|s) / d logits = onehot(a) - probs, rowwise (any leading
    axes: ``actions`` has the shape of ``probs[..., 0]``), into ``out``
    (default new)."""
    g = np.negative(probs, out=out)
    at = np.asarray(actions)[..., None]
    np.put_along_axis(g, at, np.take_along_axis(g, at, -1) + 1.0, -1)
    return g


def grad_entropy_logits(probs: np.ndarray, logp: Optional[np.ndarray] = None,
                        entropy: Optional[np.ndarray] = None,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """d H(pi) / d logits = -p * (log p + H), rowwise, into ``out``
    (default new).  ``logp`` (``log(clip(probs, 1e-12))``) and
    ``entropy`` (``H``, the shape of ``probs[..., 0]``) are computed
    when not given; a given ``logp`` is overwritten by ``log p + H``."""
    if logp is None:
        logp = np.log(np.clip(probs, 1e-12, None))
    if entropy is None:
        entropy = -(probs * logp).sum(axis=-1)
    logp += entropy[..., None]
    g = np.negative(probs, out=out)
    g *= logp
    return g


class PPOLearner:
    """The packed networks, Adam moments and rollouts of ``A`` PPO agents.

    Built from one :class:`~repro.rl.ppo.PPOConfig` per agent, equal up
    to the seed: row ``a``'s generator is ``default_rng(configs[a].seed)``
    and draws its actor's initial weights, then its critic's, then its
    actions and epoch shuffles.  Row ``a``'s rollout is
    ``obs[a, :length[a]]`` and likewise for every column of
    :meth:`record`; ``truncateds`` tells a time-limit cut-off from a
    true terminal state, and ``bootstraps`` carries ``V`` of the
    successor state of a truncated step (0 elsewhere), so GAE can
    bootstrap through the boundary (:func:`repro.rl.gae.compute_gae`).
    """

    def __init__(self, configs: Sequence["PPOConfig"]) -> None:
        configs = list(configs)
        cfg = replace(configs[0], seed=None)
        if any(replace(c, seed=None) != cfg for c in configs):
            raise StackingError("agents' configs diverge")
        self.config = cfg
        #: each agent's generator
        self.rngs = [np.random.default_rng(c.seed) for c in configs]
        self.actor = PackedMLP([cfg.obs_dim, *cfg.hidden, cfg.n_actions],
                               self.rngs, out_scale=0.01)
        self.critic = PackedMLP([cfg.obs_dim, *cfg.hidden, 1], self.rngs)
        n = len(configs)
        #: Adam steps and completed updates per agent
        self.steps = np.zeros(n, dtype=np.int64)
        self.updates = np.zeros(n, dtype=np.int64)
        #: transitions stored per agent
        self.length = np.zeros(n, dtype=np.int64)
        self._alloc_rollout(0)
        self._actor_layers = self.actor.layers(self.actor.params)
        self._critic_layers = self.critic.layers(self.critic.params)
        self._obs_buf = np.zeros((n, cfg.obs_dim))

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
        """Actions of many agents in one stacked forward.

        ``observations[j]`` belongs to agent ``rows[j]`` (every agent, in
        row order, when ``rows`` is None) and is explored with
        ``epsilons[j]``.  Returns the ``action`` / ``log_prob`` /
        ``value`` columns; each agent's own generator is drawn once per
        row, in ``rows`` order, and a greedy call touches no generator
        and runs no per-agent Python at all.
        """
        x = observations
        if rows is not None:
            x = self._obs_buf
            x[rows] = observations
        h = x[:, None, :]
        probs = softmax(self.actor.forward(h, self._actor_layers)[:, 0])
        vals = self.critic.forward(h, self._critic_layers)[:, 0, 0]
        if rows is not None:
            probs, vals = probs[rows], vals[rows]
        rngs = None
        if not greedy:
            rngs = (self.rngs if rows is None
                    else [self.rngs[i] for i in rows.tolist()])
        actions, log_probs = sample(probs, rngs, epsilons)
        return {"action": actions, "log_prob": log_probs, "value": vals}

    def probs(self, rows, observations: np.ndarray) -> np.ndarray:
        """Action probabilities of agents ``rows`` (a sequence of
        rows): ``observations[j]`` is one observation of agent
        ``rows[j]`` or an ``(m, obs_dim)`` stack of them.  Returns
        ``(len(rows), m, n_actions)``."""
        rows = np.asarray(rows, dtype=np.int64)
        x = np.asarray(observations, dtype=np.float64).reshape(
            len(rows), -1, self.actor.in_dim)
        return softmax(self.actor.forward(
            x, self.actor.layers(self.actor.params[rows])))

    def critic_values(self, rows: np.ndarray, observations: np.ndarray
                      ) -> np.ndarray:
        """Critic values of agents ``rows`` at ``observations`` (one row
        each), in one stacked forward."""
        x = self._obs_buf
        x[rows] = observations
        h = self.critic.forward(x[:, None, :], self._critic_layers)
        return h[rows, 0, 0]

    def describe(self) -> Dict[str, object]:
        """JSON-safe summary of the stack (serve's ``/state`` reports it)."""
        return {
            "agents": len(self.rngs),
            "obs_dim": self.actor.in_dim,
            "n_actions": self.actor.out_dim,
            "actor_layers": [[i, o] for i, o, _, _ in self.actor.layout],
            "critic_layers": [[i, o] for i, o, _, _ in self.critic.layout],
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
        stats.  Touches only its own rows, so groups run concurrently.

        Every epoch and minibatch writes its ``(A', m, ·)`` temporaries
        into one :class:`Workspace` of the group, which is dropped on
        return: nothing it holds stays resident between updates."""
        cfg = self.config
        sel = (slice(rows[0], rows[-1] + 1)
               if rows[-1] - rows[0] + 1 == len(rows) else rows)
        ws = Workspace()
        nets = (Rows(self.actor, sel, cfg.actor_lr, ws),
                Rows(self.critic, sel, cfg.critic_lr, ws))
        steps = self.steps[sel].copy()
        # an epoch's shuffle as flat indices into the rollout storage,
        # whose rows are ``cap`` long, and into the group's (A', T)
        # advantages and returns
        stored, local = rows * self.cap, np.arange(len(rows)) * T
        columns = ((self.obs, stored), (self.actions, stored),
                   (self.log_probs, stored), (adv, local), (returns, local))
        stats = np.zeros((len(_STATS), len(rows)))
        batches = 0
        mbs = cfg.minibatch_size
        for e in range(cfg.epochs):
            # one gather per epoch, contiguous views per minibatch; the
            # indices are in range, and mode="clip" lets take write
            # straight into ``out`` (mode="raise" buffers it)
            epoch = [a.reshape(-1, *a.shape[2:]).take(
                perms[:, e] + base[:, None], axis=0, mode="clip",
                out=ws(("epoch", k), (len(rows), T) + a.shape[2:], a.dtype))
                for k, (a, base) in enumerate(columns)]
            for start in range(0, T, mbs):
                steps += 1
                stats += self._minibatch(
                    nets, steps, *(a[:, start:start + mbs] for a in epoch))
                batches += 1
        for net in nets:
            net.store()
        self.steps[sel] = steps
        return stats / batches

    def _minibatch(self, nets: tuple, steps: np.ndarray, obs: np.ndarray,
                   actions: np.ndarray, old_logp: np.ndarray,
                   adv: np.ndarray, returns: np.ndarray) -> np.ndarray:
        """One clipped-surrogate (Eq. 11) and value (Eq. 12) step of every
        agent in the group on its ``(A', m, ·)`` minibatch, its
        temporaries in the group's workspace."""
        cfg = self.config
        actor, critic = nets
        ws = actor.ws
        m = actions.shape[1]
        ts = steps.tolist()

        # ---- actor -------------------------------------------------------
        inputs: list = []
        logits = self.actor.forward(obs, actor.layers, inputs, ws)
        probs = softmax(logits, out=logits)
        logp_all = np.clip(probs, 1e-12, None, out=ws("logp", probs.shape))
        np.log(logp_all, out=logp_all)
        new_logp = np.take_along_axis(logp_all, actions[..., None], -1)[..., 0]
        ratio = np.exp(new_logp - old_logp)
        lo, hi = 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps
        unclipped = ratio * adv
        clipped = np.clip(ratio, lo, hi) * adv
        policy_loss = -np.minimum(unclipped, clipped).mean(axis=1)
        term = np.multiply(probs, logp_all, out=ws("entropy", probs.shape))
        entropy = -term.sum(axis=-1)
        # d(-surrogate)/d logits: the min() picks the unclipped branch
        # when unclipped <= clipped — always so inside the clip range,
        # where clip() is the identity; elsewhere the clipped branch is
        # constant in theta
        coef = np.where(unclipped <= clipped, unclipped, 0.0)
        grad = grad_log_prob_logits(probs, actions,
                                    out=ws("grad", probs.shape))
        np.multiply(coef[..., None], grad, out=grad)
        np.negative(grad, out=grad)
        grad /= m
        # entropy bonus (maximize entropy -> subtract its gradient)
        bonus = grad_entropy_logits(probs, logp_all, entropy, out=term)
        np.multiply(cfg.entropy_coef, bonus, out=bonus)
        bonus /= m
        grad -= bonus
        self.actor.backward(grad, actor.layers, actor.dlayers, inputs, ws)
        self.actor.clip(actor.grads, cfg.max_grad_norm)
        actor.adam(ts)

        # ---- critic ------------------------------------------------------
        inputs = []
        v = self.critic.forward(obs, critic.layers, inputs, ws)[..., 0]
        value_loss = ((v - returns) ** 2).mean(axis=1)
        grad_v = (2.0 * (v - returns) / m)[..., None]
        self.critic.backward(grad_v, critic.layers, critic.dlayers, inputs,
                             ws)
        self.critic.clip(critic.grads, cfg.max_grad_norm)
        critic.adam(ts)

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
