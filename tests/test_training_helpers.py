"""Tests for training helpers: multi export, exploration continuation."""

import numpy as np
import pytest

from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.core.training import pretrain_offline_multi
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork


def make_net(seed=0):
    net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                   host_rate_bps=10e9, spine_rate_bps=40e9),
                       seed=seed)
    rng = np.random.default_rng(seed)
    for i in range(20):
        s, d = rng.choice(4, 2, replace=False)
        net.start_flow(Flow(i, f"h{s}", f"h{d}",
                            int(rng.integers(50_000, 3_000_000)),
                            start_time=float(rng.uniform(0, 0.02))))
    return net


def test_pretrain_offline_multi_exports_every_switch():
    cfg = PETConfig(seed=0, update_interval=5)
    state = pretrain_offline_multi(make_net, cfg, episodes=1,
                                   intervals_per_episode=10)
    net = make_net()
    assert set(state) == set(net.switch_names())
    ctrl = PETController(net.switch_names(), cfg)
    ctrl.load_state_dict(state)    # shape compatible per switch


def test_pretrain_offline_multi_rejects_zero_episodes():
    """No episode means no training: the loop refuses rather than
    export an untrained model."""
    with pytest.raises(ValueError, match="episodes"):
        pretrain_offline_multi(make_net, PETConfig(seed=0), episodes=0,
                               intervals_per_episode=10)


def test_pretrain_offline_multi_multiple_episodes():
    cfg = PETConfig(seed=1, update_interval=5)
    state = pretrain_offline_multi(make_net, cfg, episodes=2,
                                   intervals_per_episode=6)
    assert state    # completed both episodes without error


def test_advance_exploration_moves_eq13_clock():
    ctrl = PETController(["leaf0"], PETConfig(seed=0, explore_eps0=0.2,
                                              decay_rate=0.9, decay_step=50))
    before = ctrl.exploration["leaf0"].value()
    ctrl.advance_exploration(500)
    after = ctrl.exploration["leaf0"].value()
    assert after < before
    assert after == pytest.approx(0.9 ** (500 / 50) * 0.2)


def test_advance_exploration_negative_is_noop():
    ctrl = PETController(["leaf0"], PETConfig(seed=0))
    t0 = ctrl.exploration["leaf0"].t
    ctrl.advance_exploration(-5)
    assert ctrl.exploration["leaf0"].t == t0


def test_fast_profile_overrides_and_defaults():
    cfg = PETConfig.fast()
    assert cfg.actor_lr == pytest.approx(3e-3)
    assert cfg.ppo_epochs == 10
    assert cfg.decay_rate == pytest.approx(0.90)
    # paper constants unrelated to optimization stay untouched
    assert cfg.alpha_kb == 20.0
    assert cfg.clip_eps == 0.2
    # explicit overrides win
    assert PETConfig.fast(actor_lr=1e-4).actor_lr == pytest.approx(1e-4)
