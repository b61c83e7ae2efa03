"""Minimal dense neural-network layers with exact manual backpropagation.

Everything is implemented on top of NumPy.  Layers cache their forward
inputs and expose ``backward(grad_out) -> grad_in``; parameter gradients
accumulate into ``layer.grads`` until :meth:`Module.zero_grad` is called.
Shapes follow the row-batch convention: inputs are ``(batch, features)``.

The networks used by PET and ACC are small (two hidden layers of 64
units), so a NumPy implementation is both exact and fast enough for the
benchmark harness.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.parallel.seeding import fallback_rng

__all__ = ["Module", "Linear", "Tanh", "ReLU", "MLP"]

_FLOAT64 = np.dtype(np.float64)


class Module:
    """Base class for layers: forward/backward plus parameter access."""

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def parameters(self) -> Dict[str, np.ndarray]:
        """Mapping of parameter name to the (mutable) parameter array."""
        return {}

    def gradients(self) -> Dict[str, np.ndarray]:
        """Mapping of parameter name to the accumulated gradient array."""
        return {}

    def param_grad_items(self) -> List[Tuple[str, np.ndarray, np.ndarray]]:
        """``(name, param, grad)`` triples in a stable order.

        Optimizers iterate this every step; subclasses may cache it (the
        arrays are mutated in place, never rebound, except by the
        :mod:`repro.rl.stacked` weight stacker which calls
        :meth:`MLP.invalidate_param_cache`).
        """
        grads = self.gradients()
        return [(k, p, grads[k]) for k, p in self.parameters().items()]

    def zero_grad(self) -> None:
        for g in self.gradients().values():
            g[...] = 0.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with orthogonal-ish init.

    Parameters
    ----------
    in_dim, out_dim:
        Layer width.
    weight_scale:
        Multiplier applied to the init; PPO conventionally uses a small
        scale (e.g. 0.01) on the final policy layer so the initial policy
        is near-uniform.
    rng:
        NumPy generator for reproducible initialization.
    """

    def __init__(self, in_dim: int, out_dim: int, *, weight_scale: float = 1.0,
                 rng: np.random.Generator | None = None) -> None:
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("Linear dimensions must be positive")
        rng = rng if rng is not None else fallback_rng(0)
        # He/Xavier-style scaling keeps activations well-conditioned for
        # the tanh nets used throughout.
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        self.W = rng.uniform(-limit, limit, size=(in_dim, out_dim)) * weight_scale
        self.b = np.zeros(out_dim)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Hot path: called once per agent per tick.  Skip the
        # atleast_2d/asarray round-trip when the input is already a
        # conformant (batch, features) float64 array.
        if not (type(x) is np.ndarray and x.ndim == 2 and x.dtype == _FLOAT64):
            x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        self._x = x
        return x @ self.W + self.b

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        if not (type(grad_out) is np.ndarray and grad_out.ndim == 2):
            grad_out = np.atleast_2d(grad_out)
        self.dW += self._x.T @ grad_out
        self.db += grad_out.sum(axis=0)
        return grad_out @ self.W.T

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def gradients(self) -> Dict[str, np.ndarray]:
        return {"W": self.dW, "b": self.db}


class Tanh(Module):
    """Elementwise tanh."""

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._y * self._y)


class ReLU(Module):
    """Elementwise rectifier."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


_ACTIVATIONS = {"tanh": Tanh, "relu": ReLU}


class MLP(Module):
    """Multi-layer perceptron with a linear output head.

    Parameters
    ----------
    sizes:
        ``[in_dim, hidden..., out_dim]``.
    activation:
        ``"tanh"`` (default, used by the PPO nets) or ``"relu"``.
    out_scale:
        Weight scale of the final linear layer (small for policy heads).
    rng:
        Generator used for all layer initializations.
    """

    def __init__(self, sizes: Sequence[int], *, activation: str = "tanh",
                 out_scale: float = 1.0, rng: np.random.Generator | None = None) -> None:
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        rng = rng if rng is not None else fallback_rng(0)
        act = _ACTIVATIONS[activation]
        self.layers: List[Module] = []
        for i in range(len(sizes) - 1):
            last = i == len(sizes) - 2
            scale = out_scale if last else 1.0
            self.layers.append(Linear(sizes[i], sizes[i + 1], weight_scale=scale, rng=rng))
            if not last:
                self.layers.append(act())
        self.sizes = tuple(sizes)
        self.activation = activation
        self._param_cache: Dict[str, np.ndarray] | None = None
        self._grad_cache: Dict[str, np.ndarray] | None = None
        self._pg_cache: List[Tuple[str, np.ndarray, np.ndarray]] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def parameters(self) -> Dict[str, np.ndarray]:
        # Cached: parameter arrays are mutated in place (never rebound)
        # by optimizers and load_state_dict, so the mapping stays valid.
        # The repro.rl.stacked weight stacker rebinds them and must call
        # invalidate_param_cache().
        if self._param_cache is None:
            out: Dict[str, np.ndarray] = {}
            for i, layer in enumerate(self.layers):
                for name, p in layer.parameters().items():
                    out[f"layer{i}.{name}"] = p
            self._param_cache = out
        return self._param_cache

    def gradients(self) -> Dict[str, np.ndarray]:
        if self._grad_cache is None:
            out: Dict[str, np.ndarray] = {}
            for i, layer in enumerate(self.layers):
                for name, g in layer.gradients().items():
                    out[f"layer{i}.{name}"] = g
            self._grad_cache = out
        return self._grad_cache

    def param_grad_items(self) -> List[Tuple[str, np.ndarray, np.ndarray]]:
        if self._pg_cache is None:
            grads = self.gradients()
            self._pg_cache = [(k, p, grads[k]) for k, p in self.parameters().items()]
        return self._pg_cache

    def invalidate_param_cache(self) -> None:
        """Drop cached parameter/gradient views after arrays were rebound.

        Only the :mod:`repro.rl.stacked` weight stacker rebinds layer
        arrays (to views into stacked 3-D tensors); every other mutation
        is in place.
        """
        self._param_cache = None
        self._grad_cache = None
        self._pg_cache = None

    # -- (de)serialization ------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameters, for checkpointing/target networks."""
        return {k: v.copy() for k, v in self.parameters().items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = self.parameters()
        if set(state) != set(params):
            raise ValueError("state dict keys do not match the network")
        for k, v in state.items():
            if params[k].shape != v.shape:
                raise ValueError(f"shape mismatch for {k}")
            params[k][...] = v

    def copy_from(self, other: "MLP") -> None:
        """Hard-copy parameters from another MLP of identical shape."""
        self.load_state_dict(other.state_dict())

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters().values())


def clip_gradients(grads: Iterable[np.ndarray], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for diagnostics).
    """
    grads = list(grads)
    # Single vectorized reduction: np.dot over the raveled gradient is a
    # fused multiply-accumulate (no g*g temporary per array).
    sq = 0.0
    for g in grads:
        flat = g.ravel()
        sq += float(np.dot(flat, flat))
    total = math.sqrt(sq)
    if max_norm > 0 and total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
