"""Plain reference implementations of the RL math, written without
``repro.rl``'s network, optimizer or sampler: the oracles that the
packed network, its Adam step and clip, the action sampler, PPO's
update (with its k3 KL diagnostic) and DDQN's train step are held to,
byte for byte.

Everything here is the textbook form, one 2-D array at a time:
``x @ W + b`` with tanh or ReLU between layers, hand-written backward,
an ``np.dot`` global-norm clip, Kingma & Ba's Adam per parameter, and
``rng.choice(n, p=p)`` sampling (``sample``: the same draw, one row at a
time).
"""

import math

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class PlainMLP:
    """An MLP as lists of ``W``/``b`` arrays, loaded from a network's
    ``{"layer0.W", "layer0.b", "layer2.W", …}`` state dict, with its own
    per-parameter Adam moments."""

    def __init__(self, state, activation="tanh"):
        n = len(state) // 2
        self.W = [np.array(state[f"layer{2 * k}.W"]) for k in range(n)]
        self.b = [np.array(state[f"layer{2 * k}.b"]) for k in range(n)]
        self.relu = activation == "relu"
        self.m = [np.zeros_like(p) for p in self.params()]
        self.v = [np.zeros_like(p) for p in self.params()]
        self.t = 0
        self._inputs = []

    def params(self):
        """``W0, b0, W1, b1, …`` (the arrays themselves)."""
        return [p for pair in zip(self.W, self.b) for p in pair]

    def state_dict(self):
        out = {}
        for k, (W, b) in enumerate(zip(self.W, self.b)):
            out[f"layer{2 * k}.W"] = W.copy()
            out[f"layer{2 * k}.b"] = b.copy()
        return out

    def forward(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        self._inputs = []
        for k, (W, b) in enumerate(zip(self.W, self.b)):
            self._inputs.append(x)
            x = x @ W + b
            if k < len(self.W) - 1:
                x = np.where(x > 0, x, 0.0) if self.relu else np.tanh(x)
        return x

    def backward(self, g):
        """Gradients ``dW0, db0, dW1, db1, …`` of the loss whose gradient
        at the last :meth:`forward`'s output is ``g``."""
        grads = [None] * (2 * len(self.W))
        for k in range(len(self.W) - 1, -1, -1):
            x = self._inputs[k]          # the previous activation's output
            grads[2 * k] = x.T @ g
            grads[2 * k + 1] = g.sum(axis=0)
            if k:
                g = g @ self.W[k].T
                g = g * (x > 0) if self.relu else g * (1.0 - x * x)
        return grads

    def step(self, grads, lr, max_norm):
        """Clip ``grads`` to ``max_norm`` and take one Adam step."""
        clip(grads, max_norm)
        self.t += 1
        adam(self.params(), grads, self.m, self.v, self.t, lr)

    def flat(self, arrays=None):
        """``arrays`` (default the parameters) raveled and concatenated:
        the layout of a packed row."""
        return np.concatenate([a.ravel() for a in (arrays or self.params())])


def clip(grads, max_norm):
    """Scale ``grads`` in place so their global L2 norm is at most
    ``max_norm`` (0 disables); returns the pre-clip norm."""
    sq = 0.0
    for g in grads:
        flat = g.ravel()
        sq += float(np.dot(flat, flat))
    total = math.sqrt(sq)
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


def adam(params, grads, m, v, t, lr):
    """Kingma & Ba, Algorithm 1, one parameter array at a time."""
    for p, g, mk, vk in zip(params, grads, m, v):
        mk[...] = BETA1 * mk + (1.0 - BETA1) * g
        vk[...] = BETA2 * vk + (1.0 - BETA2) * (g * g)
        m_hat = mk / (1.0 - BETA1 ** t)
        v_hat = vk / (1.0 - BETA2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + EPS)


def softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def act(state, rng, obs, *, epsilon=0.0, greedy=False):
    """What a PPO agent with checkpoint ``state`` and generator ``rng``
    decides at ``obs``: ``{"action", "log_prob", "value"}``."""
    p = softmax(PlainMLP(state["actor"]).forward(obs))[0]
    n = len(p)
    if greedy:
        a = int(np.argmax(p))
    elif epsilon > 0.0 and rng.random() < epsilon:
        a = int(rng.integers(n))
    else:
        a = int(rng.choice(n, p=p))
    value = float(PlainMLP(state["critic"]).forward(obs)[0, 0])
    return {"action": a, "log_prob": float(np.log(max(p[a], 1e-12))),
            "value": value}


def sample(probs, rngs, epsilons=None):
    """The stacked sampler one row at a time: row ``j`` tests
    ``epsilons[j]`` on ``rngs[j]``, then draws ``integers(n)`` or runs
    ``rng.choice(n, p=probs[j])`` inlined — numpy's normalized cumsum,
    one uniform, a right ``searchsorted`` — without its per-call
    validation.  Returns the actions and their log-probabilities."""
    eps_of = epsilons if epsilons is not None else [0.0] * len(rngs)
    actions = np.empty(len(rngs), dtype=np.int64)
    for j, (rng, eps, p) in enumerate(zip(rngs, eps_of, probs)):
        if eps > 0.0 and rng.random() < eps:
            actions[j] = rng.integers(p.shape[0])
        else:
            cdf = p.cumsum()
            cdf /= cdf[-1]
            actions[j] = cdf.searchsorted(rng.random(), side="right")
    chosen = probs[np.arange(len(actions)), actions]
    return actions, np.log(np.maximum(chosen, 1e-12))


def approx_kl_k3(old_logp, new_logp):
    """The k3 KL estimator ``E[(ratio - 1) - log(ratio)]``.

    The naive k1 estimator ``E[old_logp - new_logp]`` is signed: its
    per-sample terms cancel, it frequently goes negative, and it is
    useless as a divergence diagnostic.  k3 (Schulman, "Approximating KL
    Divergence") is non-negative term-by-term — ``(x-1) - log(x) >= 0``
    for all x > 0 — unbiased, and low-variance, so it is the standard
    early-stopping/trust-region signal, and what the learner reports as
    ``approx_kl``.
    """
    log_ratio = np.asarray(new_logp) - np.asarray(old_logp)
    return float(np.mean((np.exp(log_ratio) - 1.0) - log_ratio))
