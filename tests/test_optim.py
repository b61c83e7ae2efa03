"""Tests for Adam/SGD optimizers."""

import numpy as np
import pytest

from repro.rl.nn import MLP
from repro.rl.optim import Adam, SGD


def _train_quadratic(opt_cls, steps=300, **kwargs):
    """Minimize ||net(x) - t||^2 on a fixed batch; return final loss."""
    rng = np.random.default_rng(0)
    net = MLP([2, 8, 1], rng=rng)
    x = rng.normal(size=(16, 2))
    t = (x[:, :1] * 0.5 - x[:, 1:] * 0.25)
    opt = opt_cls(net, **kwargs)
    loss = None
    for _ in range(steps):
        out = net.forward(x)
        loss = float(np.mean((out - t) ** 2))
        net.zero_grad()
        net.backward(2 * (out - t) / len(x))
        opt.step()
    return loss


def test_sgd_descends():
    assert _train_quadratic(SGD, lr=0.05) < 0.01


def test_sgd_momentum_descends():
    assert _train_quadratic(SGD, lr=0.02, momentum=0.9) < 0.01


def test_adam_descends_fast():
    assert _train_quadratic(Adam, steps=150, lr=0.01) < 0.005


def test_adam_bias_correction_first_step():
    """With bias correction the first Adam step is ~lr * sign(grad)."""
    net = MLP([1, 1], rng=np.random.default_rng(1))
    w_before = net.parameters()["layer0.W"].copy()
    out = net.forward(np.array([[1.0]]))
    net.zero_grad()
    net.backward(np.array([[1.0]]))
    Adam(net, lr=0.1).step()
    w_after = net.parameters()["layer0.W"]
    assert abs(float(np.abs(w_after - w_before).ravel()[0]) - 0.1) < 1e-6


def test_invalid_hyperparams():
    net = MLP([2, 2])
    with pytest.raises(ValueError):
        Adam(net, lr=-1.0)
    with pytest.raises(ValueError):
        Adam(net, lr=0.1, beta1=1.0)
    with pytest.raises(ValueError):
        SGD(net, lr=0.1, momentum=1.0)


def test_zero_grad_passthrough():
    net = MLP([2, 2], rng=np.random.default_rng(2))
    net.forward(np.ones((1, 2)))
    net.backward(np.ones((1, 2)))
    opt = Adam(net, lr=0.1)
    opt.zero_grad()
    assert all(np.all(g == 0) for g in net.gradients().values())


def test_adam_zero_grad_step_keeps_params():
    """A step on exactly-zero gradients must not move parameters."""
    net = MLP([2, 2], rng=np.random.default_rng(3))
    before = {k: v.copy() for k, v in net.parameters().items()}
    opt = Adam(net, lr=0.1)
    net.zero_grad()
    opt.step()
    for k, v in net.parameters().items():
        np.testing.assert_allclose(v, before[k])


def _textbook_adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999,
                   eps=1e-8):
    """Kingma & Ba, Algorithm 1, one parameter array at a time."""
    for k, p in params.items():
        g = grads[k]
        m[k] = beta1 * m[k] + (1.0 - beta1) * g
        v[k] = beta2 * v[k] + (1.0 - beta2) * (g * g)
        m_hat = m[k] / (1.0 - beta1 ** t)
        v_hat = v[k] / (1.0 - beta2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def test_adam_equals_textbook_per_parameter_update_bit_for_bit():
    """The flat-packed step against the per-parameter formula, on a
    two-layer MLP whose gradients change every step."""
    lr = 3e-3
    packed = MLP([3, 8, 2], rng=np.random.default_rng(5))
    plain = MLP([3, 8, 2], rng=np.random.default_rng(5))
    opt = Adam(packed, lr=lr)
    m = {k: np.zeros_like(p) for k, p in plain.parameters().items()}
    v = {k: np.zeros_like(p) for k, p in plain.parameters().items()}
    data = np.random.default_rng(6)
    for t in range(1, 26):
        x = data.normal(size=(7, 3))
        target = data.normal(size=(7, 2))
        for net in (packed, plain):
            out = net.forward(x)
            net.zero_grad()
            net.backward(2 * (out - target) / len(x))
        opt.step()
        _textbook_adam(plain.parameters(), plain.gradients(), m, v, t, lr)
        for k, p in packed.parameters().items():
            assert p.tobytes() == plain.parameters()[k].tobytes(), (t, k)
    assert len(packed.parameters()) == 4


def test_adam_rejects_non_contiguous_parameter():
    """A parameter whose flat view would be a copy can not be updated in
    place; the error names it and offers no other optimizer mode."""
    net = MLP([3, 4, 2], rng=np.random.default_rng(7))
    layer = net.layers[0]
    layer.W = np.asfortranarray(layer.W)
    net.invalidate_param_cache()
    opt = Adam(net, lr=0.1)
    net.forward(np.ones((1, 3)))
    net.backward(np.ones((1, 2)))
    with pytest.raises(ValueError, match="layer0.W") as err:
        opt.step()
    assert "contiguous" in str(err.value)
    assert "fused" not in str(err.value)
