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


# ----------------------------------------------------- in-process multi-seed
class _NotFluid:
    """A fluid network behind a proxy: it runs, but cannot be batched."""

    def __init__(self, net):
        self._net = net

    def __getattr__(self, name):
        return getattr(self._net, name)


def _proxied_net(seed):
    return _NotFluid(make_net(seed))


class TestPretrainMultiSeedSimBatch:
    """In-process pretrain_multi_seed steps compatible seeds as one
    BatchFluidNetwork; it must equal pretrain_one_seed run seed by seed
    and the Engine's process pool."""

    CFG = PETConfig(seed=None, update_interval=5, delta_t=1e-3)
    KW = dict(seeds=[3, 14, 15], episodes=2, intervals_per_episode=6)

    @staticmethod
    def _canon(results):
        from repro.fingerprint import fingerprint
        return fingerprint([
            (r.seed, r.state,
             [(ep.intervals, ep.mean_reward, ep.rewards_per_switch,
               ep.reward_trace) for ep in r.episodes])
            for r in results])

    @staticmethod
    def _spy(monkeypatch):
        from repro.netsim.batchfluid import BatchFluidNetwork
        replicas = []
        advance = BatchFluidNetwork.advance

        def spy(batch, dt):
            replicas.append(len(batch))
            advance(batch, dt)
        monkeypatch.setattr(BatchFluidNetwork, "advance", spy)
        return replicas

    def test_bit_identical_to_engine_path(self, monkeypatch):
        from repro.core.training import pretrain_multi_seed, pretrain_one_seed
        from repro.parallel.engine import Engine
        replicas = self._spy(monkeypatch)
        kw = dict(self.KW)
        seeds = kw.pop("seeds")
        solo = [pretrain_one_seed(make_net, self.CFG, seed=s, **kw)
                for s in seeds]
        assert replicas == []
        local = pretrain_multi_seed(make_net, self.CFG, **self.KW)
        assert replicas == [3] * 12
        fanned = pretrain_multi_seed(make_net, self.CFG, **self.KW,
                                     engine=Engine(workers=2))
        assert self._canon(local) == self._canon(solo)
        assert self._canon(local) == self._canon(fanned)

    def test_non_fluid_networks_train_one_seed_at_a_time(self, monkeypatch):
        from repro.core.training import pretrain_multi_seed
        replicas = self._spy(monkeypatch)
        proxied = pretrain_multi_seed(_proxied_net, self.CFG, **self.KW)
        assert replicas == []
        batched = pretrain_multi_seed(make_net, self.CFG, **self.KW)
        assert self._canon(proxied) == self._canon(batched)

    def test_checkpoints_written_per_seed(self, tmp_path):
        from repro.core.training import pretrain_multi_seed
        pretrain_multi_seed(make_net, self.CFG, seeds=[1, 2], episodes=1,
                            intervals_per_episode=4,
                            checkpoint_dir=str(tmp_path), checkpoint_every=2)
        dirs = sorted(p.name for p in tmp_path.iterdir())
        assert dirs == ["seed-00000001", "seed-00000002"]
        assert all(any(p.iterdir()) for p in tmp_path.iterdir())
