"""Tests for the packed MLP (:class:`repro.rl.stacked.PackedMLP`), the one
network of :mod:`repro.rl`, with tanh (PPO) and ReLU (DDQN) rows:
gradient checks, forward against plain matmuls, clipping, checkpoints
and construction checks."""

import numpy as np
import pytest

from repro.rl.stacked import PackedMLP

ACTIVATIONS = ["tanh", "relu"]


def _net(sizes, seeds=(0,), activation="tanh", out_scale=1.0):
    return PackedMLP(sizes, [np.random.default_rng(s) for s in seeds],
                     activation=activation, out_scale=out_scale)


def _forward(net, x, inputs=None):
    """``x`` is ``(m, in)`` for every row, or ``(A, m, in)``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = np.broadcast_to(x, (len(net.params),) + x.shape)
    return net.forward(x, net.layers(net.params), inputs)


def _backward(net, x, g):
    inputs = []
    _forward(net, x, inputs)
    net.backward(np.asarray(g, dtype=np.float64),
                 net.layers(net.params), net.layers(net.grads), inputs)


def numerical_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        hi = f()
        x[i] = old - eps
        lo = f()
        x[i] = old
        g[i] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def _gradcheck(net, x, t):
    """The backward's gradient of ``0.5 * ||net(x) - t||^2`` against
    central differences, over every packed parameter of every row."""
    def loss():
        return 0.5 * np.sum((_forward(net, x) - t) ** 2)

    _backward(net, x, _forward(net, x) - t)
    np.testing.assert_allclose(net.grads, numerical_grad(loss, net.params),
                               atol=1e-5)


def _identity_net(n, activation):
    """``[n, n, n]`` with identity weights and zero biases: the output is
    the activation of the input."""
    net = _net([n, n, n], activation=activation)
    for W, b in net.layers(net.params):
        W[0] = np.eye(n)
        b[...] = 0.0
    return net


class TestLinear:
    """One linear layer: a network of two sizes."""

    def test_forward_shape(self):
        net = _net([3, 5], seeds=(0, 1))
        assert _forward(net, np.ones((4, 3))).shape == (2, 4, 5)

    def test_forward_matches_matmul(self):
        rng = np.random.default_rng(1)
        for activation in ACTIVATIONS:
            net = _net([3, 6, 2], seeds=(1, 2), activation=activation)
            x = rng.normal(size=(2, 5, 3))
            got = _forward(net, x)
            for a in range(2):
                (W0, b0), (W1, b1) = [(W[a], b[a, 0]) for W, b in
                                      net.layers(net.params)]
                h = x[a] @ W0 + b0
                h = np.tanh(h) if activation == "tanh" else np.maximum(h, 0)
                np.testing.assert_allclose(got[a], h @ W1 + b1, rtol=1e-12)

    def test_backward_gradcheck(self):
        rng = np.random.default_rng(2)
        net = _net([4, 3], seeds=(2, 3))
        _gradcheck(net, rng.normal(size=(2, 6, 4)), rng.normal(size=(2, 6, 3)))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            _net([0, 3])


class TestActivations:
    @pytest.mark.parametrize("activation,fn", [
        pytest.param("tanh", np.tanh, id="Tanh-tanh"),
        pytest.param("relu", lambda x: np.maximum(x, 0), id="ReLU-<lambda>")])
    def test_forward(self, activation, fn):
        net = _identity_net(11, activation)
        x = np.linspace(-2, 2, 11).reshape(1, -1)
        np.testing.assert_allclose(_forward(net, x)[0], fn(x))

    def test_tanh_gradcheck(self):
        rng = np.random.default_rng(3)
        net = _net([5, 7, 2], activation="tanh")
        _gradcheck(net, rng.normal(size=(4, 5)), rng.normal(size=(4, 2)))

    def test_relu_grad_zero_for_negative(self):
        """A unit whose input is negative passes no gradient back."""
        net = _identity_net(2, "relu")
        _backward(net, np.array([[-1.0, 2.0]]), np.ones((1, 1, 2)))
        (_, db0), _ = net.layers(net.grads)
        np.testing.assert_allclose(db0[0, 0], [0.0, 1.0])


class TestMLP:
    def test_shapes_and_param_count(self):
        net = _net([4, 8, 3])
        assert _forward(net, np.ones((2, 4))).shape == (1, 2, 3)
        assert net.params.shape == (1, 4 * 8 + 8 + 8 * 3 + 3)
        assert net.grads.shape == net.m.shape == net.v.shape == net.params.shape

    def test_full_gradcheck(self):
        rng = np.random.default_rng(4)
        for activation in ACTIVATIONS:
            net = _net([3, 6, 5, 2], seeds=(4, 5), activation=activation)
            _gradcheck(net, rng.normal(size=(2, 4, 3)),
                       rng.normal(size=(2, 4, 2)))

    def test_grad_accumulation_and_zero(self):
        """``backward`` writes the gradients, it does not accumulate:
        the same pass twice gives the same gradients, and a zero output
        gradient writes zeros over stale ones."""
        net = _net([2, 4, 1], seeds=(5,))
        x = np.ones((1, 2))
        _backward(net, x, np.ones((1, 1, 1)))
        g1 = net.grads.copy()
        assert np.any(g1 != 0)
        _backward(net, x, np.ones((1, 1, 1)))
        assert net.grads.tobytes() == g1.tobytes()
        _backward(net, x, np.zeros((1, 1, 1)))
        assert not np.any(net.grads)

    def test_state_dict_roundtrip(self):
        x = np.random.default_rng(8).normal(size=(2, 3))
        for activation in ACTIVATIONS:
            a = _net([3, 5, 2], seeds=(6,), activation=activation)
            b = _net([3, 5, 2], seeds=(7, 9), activation=activation)
            state = a.state_dict(0)
            assert list(state) == ["layer0.W", "layer0.b", "layer2.W",
                                   "layer2.b"]
            assert state["layer0.W"].shape == (3, 5)
            assert state["layer2.b"].shape == (2,)
            assert not np.allclose(_forward(a, x)[0], _forward(b, x)[1])
            other = b.params[0].copy()
            b.load_state_dict(1, state)
            assert _forward(a, x)[0].tobytes() == _forward(b, x)[1].tobytes()
            assert b.params[0].tobytes() == other.tobytes()
            state["layer0.W"][...] = 0.0        # a copy, not a view
            assert np.any(a.params)

    def test_state_dict_shape_mismatch_rejected(self):
        a = _net([3, 5, 2])
        b = _net([3, 4, 2])
        before = b.params.copy()
        with pytest.raises(ValueError, match="shape mismatch"):
            b.load_state_dict(0, a.state_dict(0))
        state = b.state_dict(0)
        del state["layer2.b"]
        with pytest.raises(ValueError, match="keys"):
            b.load_state_dict(0, state)
        state = {**b.state_dict(0), "layer4.W": np.zeros((2, 2))}
        with pytest.raises(ValueError, match="keys"):
            b.load_state_dict(0, state)
        # a rejected checkpoint writes nothing
        assert b.params.tobytes() == before.tobytes()

    def test_out_scale_shrinks_head(self):
        big = _net([4, 8, 3], seeds=(9,), out_scale=1.0)
        small = _net([4, 8, 3], seeds=(9,), out_scale=0.01)
        head_big = big.layers(big.params)[-1][0]
        head_small = small.layers(small.params)[-1][0]
        assert np.abs(head_small).max() < np.abs(head_big).max() / 10
        # only the head: the hidden layer is drawn the same
        assert (big.layers(big.params)[0][0].tobytes()
                == small.layers(small.params)[0][0].tobytes())

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            _net([4])
        with pytest.raises(ValueError):
            _net([4, 2], activation="sigmoid")
        with pytest.raises(ValueError):
            _net([4, 0, 2])


class TestClipGradients:
    """``PackedMLP.clip`` on a ``[1, 2]`` network's four gradients."""

    @staticmethod
    def _clip(rows, max_norm):
        net = _net([1, 2], seeds=range(len(rows)))
        net.grads[...] = rows
        return net.clip(net.grads, max_norm), net.grads

    def test_noop_below_norm(self):
        norm, g = self._clip([[3.0, 4.0, 0.0, 0.0]], max_norm=10.0)
        assert norm[0] == pytest.approx(5.0)
        np.testing.assert_allclose(g[0], [3.0, 4.0, 0.0, 0.0])

    def test_scales_above_norm(self):
        """Each row is clipped on its own norm."""
        norm, g = self._clip([[3.0, 4.0, 0.0, 0.0], [0.0, 0.0, 0.3, 0.4]],
                             max_norm=1.0)
        assert norm.tolist() == pytest.approx([5.0, 0.5])
        assert np.linalg.norm(g[0]) == pytest.approx(1.0)
        np.testing.assert_allclose(g[1], [0.0, 0.0, 0.3, 0.4])

    def test_zero_max_norm_disables(self):
        _, g = self._clip([[30.0, 40.0, 0.0, 0.0]], max_norm=0.0)
        np.testing.assert_allclose(g[0], [30.0, 40.0, 0.0, 0.0])
