"""First-order optimizers operating on named parameter/gradient dicts.

The optimizers bind to a :class:`repro.rl.nn.Module` at construction and
read its current gradients at each :meth:`step`.  The paper trains the
actor and critic with Adam at learning rates 4e-4 and 1e-3 respectively
(paper §5.2), which are the defaults used by :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.rl.nn import Module

__all__ = ["Optimizer", "SGD", "Adam", "adam_direction"]


class Optimizer:
    """Base optimizer bound to one module."""

    def __init__(self, module: Module, lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.module = module
        self.lr = lr

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def zero_grad(self) -> None:
        self.module.zero_grad()


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(self, module: Module, lr: float, momentum: float = 0.0) -> None:
        super().__init__(module, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity: Dict[str, np.ndarray] = {
            k: np.zeros_like(v) for k, v in module.parameters().items()
        }

    def step(self) -> None:
        params = self.module.parameters()
        grads = self.module.gradients()
        for k, p in params.items():
            v = self._velocity[k]
            v *= self.momentum
            v -= self.lr * grads[k]
            p += v


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction.

    Matches the PyTorch defaults (beta1=0.9, beta2=0.999, eps=1e-8) the
    paper's implementation would have used.

    Flat packing: every parameter occupies one [a, b) span of a single
    first/second-moment vector, so the whole update is a dozen
    full-vector ufunc calls instead of a dozen *per parameter*.  Adam is
    purely elementwise, so packing cannot change any result bit
    (``tests/test_optim.py`` holds it to the textbook per-parameter
    update).
    """

    def __init__(self, module: Module, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        super().__init__(module, lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._slots = []
        off = 0
        for k, p in module.parameters().items():
            self._slots.append((k, off, off + p.size))
            off += p.size
        self._fg = np.zeros(off)
        self._fm = np.zeros(off)
        self._fv = np.zeros(off)
        self._f1 = np.zeros(off)
        self._f2 = np.zeros(off)
        # per-parameter flat views, rebuilt when the module's cached
        # item list is invalidated (e.g. by the weight stacker)
        self._items_key: object = None
        self._packed: list = []
        self._t = 0

    def step(self) -> None:
        """One allocation-free step: a gradient gather and an update
        scatter per parameter plus ~12 full-vector ufunc calls,
        regardless of parameter count."""
        self._t += 1
        fg = self._fg
        items = self.module.param_grad_items()
        if items is not self._items_key:
            # (a, b, flat_param, flat_grad): reshape(-1) of a C-contiguous
            # array is a view, so the flat handles alias the live arrays;
            # guard with shares_memory in case a layer ever holds a
            # non-contiguous parameter (reshape would silently copy).
            self._packed = []
            for (name, a, b), (_, p, g) in zip(self._slots, items):
                pf, gf = p.reshape(-1), g.reshape(-1)
                if not (np.shares_memory(pf, p) and np.shares_memory(gf, g)):
                    raise ValueError(
                        "Adam needs C-contiguous parameters and gradients; "
                        f"{name!r} is not")
                self._packed.append((a, b, pf, gf))
            self._items_key = items
        packed = self._packed
        for a, b, _pf, gf in packed:
            fg[a:b] = gf
        adam_direction(fg, self._fm, self._fv, 1.0 - self.beta1 ** self._t,
                       1.0 - self.beta2 ** self._t, self.lr, self.beta1,
                       self.beta2, self.eps, self._f1, self._f2)
        for a, b, pf, _gf in packed:
            pf -= self._f1[a:b]


def adam_direction(g: np.ndarray, m: np.ndarray, v: np.ndarray, b1t, b2t,
                   lr: float, beta1: float, beta2: float, eps: float,
                   out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Advance Adam's moments ``m``, ``v`` in place by gradient ``g`` and
    write the step ``lr * m_hat / (sqrt(v_hat) + eps)`` into ``out``.

    ``b1t``/``b2t`` are the bias corrections ``1 - beta ** t``: floats,
    or ``(A, 1)`` columns when ``g`` packs one agent per row.  Every
    operation is elementwise, so packing cannot change a result bit;
    ``tmp`` is scratch of ``g``'s shape.
    """
    m *= beta1
    np.multiply(g, 1.0 - beta1, out=out)
    m += out
    v *= beta2
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - beta2
    v += tmp
    np.divide(m, b1t, out=out)
    out *= lr                          # == lr * m_hat
    np.divide(v, b2t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps                         # == sqrt(v_hat) + eps
    out /= tmp
    return out
