"""Adam (Kingma & Ba 2015) with bias correction, as one elementwise
step over packed parameter rows.

The paper trains the actor and critic with Adam at learning rates 4e-4
and 1e-3 respectively (paper §5.2), which are the defaults used by
:mod:`repro.core`; :class:`repro.rl.stacked.Rows` applies the step with
PyTorch's defaults (beta1=0.9, beta2=0.999, eps=1e-8).
"""

from __future__ import annotations

import numpy as np

__all__ = ["adam_direction"]


def adam_direction(g: np.ndarray, m: np.ndarray, v: np.ndarray, b1t, b2t,
                   lr: float, beta1: float, beta2: float, eps: float,
                   tmp: np.ndarray) -> np.ndarray:
    """Advance Adam's moments ``m``, ``v`` in place by gradient ``g`` and
    overwrite ``g`` with the step ``lr * m_hat / (sqrt(v_hat) + eps)``;
    returns ``g``.

    ``b1t``/``b2t`` are the bias corrections ``1 - beta ** t``: floats,
    or ``(A, 1)`` columns when ``g`` packs one agent per row.  Every
    operation is elementwise, so packing cannot change a result bit;
    ``tmp`` is scratch of ``g``'s shape.
    """
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - beta2
    v *= beta2
    v += tmp
    g *= 1.0 - beta1
    m *= beta1
    m += g
    np.divide(m, b1t, out=g)
    g *= lr                            # == lr * m_hat
    np.divide(v, b2t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps                         # == sqrt(v_hat) + eps
    g /= tmp
    return g
