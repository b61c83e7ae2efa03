"""Tests for Adam on packed rows (:meth:`repro.rl.stacked.Rows.adam`,
over :func:`repro.rl.optim.adam_direction`) and the learning-rate checks
of the configs that carry one."""

import numpy as np
import pytest

from repro.rl.ddqn import DDQNConfig
from repro.rl.ppo import PPOConfig
from repro.rl.stacked import PackedMLP, Rows
from tests import plain_rl


def _net(sizes, seeds=(0,)):
    return PackedMLP(sizes, [np.random.default_rng(s) for s in seeds])


def _backward(net, rows, x, g):
    """Gradients of ``rows`` for the output gradient ``g`` at ``x``."""
    inputs = []
    net.forward(x, rows.layers, inputs)
    net.backward(g, rows.layers, rows.dlayers, inputs)


def _train_quadratic(steps, lr):
    """Minimize ||net(x) - t||^2 on a fixed batch; return final loss."""
    rng = np.random.default_rng(0)
    net = PackedMLP([2, 8, 1], [rng])
    x = rng.normal(size=(1, 16, 2))
    t = (x[..., :1] * 0.5 - x[..., 1:] * 0.25)
    rows = Rows(net, slice(None), lr)
    loss = None
    for step in range(1, steps + 1):
        out = net.forward(x, rows.layers)
        loss = float(np.mean((out - t) ** 2))
        _backward(net, rows, x, 2 * (out - t) / x.shape[1])
        rows.adam([step])
    return loss


def test_adam_descends_fast():
    assert _train_quadratic(steps=150, lr=0.01) < 0.005


def test_adam_bias_correction_first_step():
    """With bias correction the first Adam step is ~lr * sign(grad)."""
    net = _net([1, 1], seeds=(1,))
    rows = Rows(net, slice(None), 0.1)
    w_before = net.params[0, 0]
    _backward(net, rows, np.ones((1, 1, 1)), np.ones((1, 1, 1)))
    rows.adam([1])
    assert abs(abs(net.params[0, 0] - w_before) - 0.1) < 1e-6


def test_invalid_hyperparams():
    """A learning rate must be positive, in every config that has one."""
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="learning rate"):
            PPOConfig(actor_lr=bad)
        with pytest.raises(ValueError, match="learning rate"):
            PPOConfig(critic_lr=bad)
        with pytest.raises(ValueError, match="learning rate"):
            DDQNConfig(lr=bad)


def test_zero_grad_passthrough():
    """The packed network has no ``zero_grad``: each backward writes its
    gradients, so stale ones never reach an Adam step."""
    net = _net([2, 2], seeds=(2,))
    rows = Rows(net, slice(None), 0.1)
    _backward(net, rows, np.ones((1, 1, 2)), np.ones((1, 1, 2)))
    assert np.any(net.grads)
    _backward(net, rows, np.ones((1, 1, 2)), np.zeros((1, 1, 2)))
    assert not np.any(net.grads)


def test_adam_zero_grad_step_keeps_params():
    """A step on exactly-zero gradients must not move parameters."""
    net = _net([2, 2], seeds=(3,))
    before = net.params.copy()
    Rows(net, slice(None), 0.1).adam([1])
    assert net.params.tobytes() == before.tobytes()
    assert not np.any(net.m) and not np.any(net.v)


def test_adam_equals_textbook_per_parameter_update_bit_for_bit():
    """Adam over packed rows against the per-parameter formula, on two
    rows of a two-layer MLP whose gradients change every step, the rows
    at different step counts."""
    lr = 3e-3
    net = _net([3, 8, 2], seeds=(5, 6))
    rows = Rows(net, slice(None), lr)
    plains = [plain_rl.PlainMLP(net.state_dict(a)) for a in range(2)]
    plains[1].t = 7
    data = np.random.default_rng(6)
    for _ in range(25):
        x = data.normal(size=(2, 7, 3))
        target = data.normal(size=(2, 7, 2))
        out = net.forward(x, rows.layers)
        _backward(net, rows, x, 2 * (out - target) / x.shape[1])
        for a, plain in enumerate(plains):
            grads = plain.backward(2 * (plain.forward(x[a]) - target[a])
                                   / x.shape[1])
            plain.t += 1
            plain_rl.adam(plain.params(), grads, plain.m, plain.v, plain.t,
                          lr)
        rows.adam([p.t for p in plains])
        for a, plain in enumerate(plains):
            assert net.params[a].tobytes() == plain.flat().tobytes(), a
            assert net.m[a].tobytes() == plain.flat(plain.m).tobytes(), a
            assert net.v[a].tobytes() == plain.flat(plain.v).tobytes(), a


def test_adam_rejects_non_contiguous_parameter():
    """Rows picked by an index array are copies, so an Adam step cannot
    update them in place: it lands in the copies, which ``store()``
    writes back.  Nothing reaches the packed rows before that, and after
    it they equal the same step through a slice, a view of those rows."""
    x = np.random.default_rng(7).normal(size=(2, 4, 3))
    nets = [_net([3, 4, 2], seeds=(7, 8, 9)) for _ in range(2)]
    for net, sel in zip(nets, (np.array([0, 2]), slice(0, 3, 2))):
        rows = Rows(net, sel, 0.1)
        _backward(net, rows, x, np.ones((2, 4, 2)))
        before = net.params.copy()
        rows.adam([1, 1])
        if isinstance(sel, np.ndarray):
            assert net.params.tobytes() == before.tobytes()
            rows.store()
        assert net.params[1].tobytes() == before[1].tobytes()
    assert nets[0].params.tobytes() == nets[1].params.tobytes()
    assert nets[0].m.tobytes() == nets[1].m.tobytes()
