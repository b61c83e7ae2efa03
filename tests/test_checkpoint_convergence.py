"""Tests for checkpoint serialization and convergence metrics."""

import numpy as np
import pytest

from repro.analysis.convergence import (moving_average, recovery_time,
                                        settling_time)
from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.rl.checkpoint import (flatten_state, load_checkpoint,
                                 save_checkpoint, unflatten_state)


class TestFlatten:
    def test_roundtrip_nested(self):
        state = {"a": {"b": np.arange(3), "c": {"d": np.ones((2, 2))}},
                 "e": np.zeros(1)}
        flat = flatten_state(state)
        assert set(flat) == {"a/b", "a/c/d", "e"}
        back = unflatten_state(flat)
        np.testing.assert_allclose(back["a"]["c"]["d"], np.ones((2, 2)))

    def test_separator_in_key_rejected(self):
        with pytest.raises(ValueError):
            flatten_state({"a/b": np.zeros(1)})

    def test_path_conflict_rejected(self):
        with pytest.raises(ValueError):
            unflatten_state({"a": np.zeros(1), "a/b": np.zeros(1)})


class TestCheckpointFile:
    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        state = {"actor": {"w": np.random.default_rng(0).normal(size=(3, 2))},
                 "critic": {"w": np.ones(4)}}
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        np.testing.assert_allclose(loaded["actor"]["w"], state["actor"]["w"])

    def test_empty_checkpoint_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint(str(tmp_path / "x.npz"), {})

    def test_pet_controller_roundtrip_through_disk(self, tmp_path):
        """Full deployment path: train state -> npz -> new controller."""
        path = str(tmp_path / "pet.npz")
        a = PETController(["leaf0", "spine0"], PETConfig(seed=0))
        save_checkpoint(path, a.state_dict())
        b = PETController(["leaf0", "spine0"], PETConfig(seed=9))
        b.load_state_dict(load_checkpoint(path))
        obs = np.zeros(a.trainer.config.obs_dim)
        np.testing.assert_allclose(a.trainer.learner.probs([0], obs),
                                   b.trainer.learner.probs([0], obs))


class TestMovingAverage:
    def test_constant_trace(self):
        np.testing.assert_allclose(moving_average([2.0] * 5, 3), 2.0)

    def test_window_one_is_identity(self):
        x = [1.0, 5.0, 3.0]
        np.testing.assert_allclose(moving_average(x, 1), x)

    def test_trailing_semantics(self):
        out = moving_average([0.0, 0.0, 3.0], window=3)
        assert out[2] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 0)

    def test_empty(self):
        assert moving_average([], 5).size == 0


class TestSettlingTime:
    def test_step_response(self):
        trace = [0.0] * 20 + [1.0] * 80
        t = settling_time(trace, band=0.05, window=1)
        assert 15 <= t <= 25

    def test_already_settled(self):
        assert settling_time([1.0] * 50, window=1) == 0

    def test_never_settles(self):
        # diverging trace: the tail keeps moving away
        trace = list(np.linspace(0, 1, 100) ** 3)
        t = settling_time(trace, band=0.001, window=1)
        assert t is None or t > 90

    def test_empty(self):
        assert settling_time([]) is None


class TestRecoveryTime:
    def test_disturb_and_recover(self):
        trace = [1.0] * 50 + [3.0] * 20 + [1.0] * 50
        r = recovery_time(trace, disturbance_idx=50, window=1, band=0.1)
        assert r == 20

    def test_never_recovers(self):
        trace = [1.0] * 50 + [5.0] * 50
        assert recovery_time(trace, 50, window=1) is None

    def test_index_validation(self):
        with pytest.raises(ValueError):
            recovery_time([1.0] * 10, 0)
        with pytest.raises(ValueError):
            recovery_time([1.0] * 10, 10)
