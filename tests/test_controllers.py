"""Tests for the PET controller, ACC controller, and static baselines."""

import numpy as np
import pytest

from repro.baselines.acc import ACCConfig, ACCController
from repro.baselines.static_ecn import StaticECNController, secn1, secn2
from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.core.training import run_control_loop
from repro.netsim.ecn import ECNConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork


def tiny_net(seed=0):
    return FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                    host_rate_bps=10e9, spine_rate_bps=40e9),
                        seed=seed)


def loaded_net(seed=0, n_flows=6):
    net = tiny_net(seed)
    rng = np.random.default_rng(seed)
    hosts = net.host_names()
    for i in range(n_flows):
        src, dst = rng.choice(len(hosts), size=2, replace=False)
        net.start_flow(Flow(i, hosts[src], hosts[dst],
                            int(rng.integers(10_000, 2_000_000)),
                            start_time=float(rng.uniform(0, 5e-3))))
    return net


def fast_cfg(**kw):
    kw.setdefault("delta_t", 1e-3)
    kw.setdefault("update_interval", 4)
    kw.setdefault("seed", 0)
    return PETConfig(**kw)


class TestPETController:
    def test_requires_switches(self):
        with pytest.raises(ValueError):
            PETController([])

    def test_decide_applies_config_to_every_switch(self):
        net = loaded_net()
        pet = PETController(net.switch_names(), fast_cfg())
        net.advance(1e-3)
        applied = pet.decide(net.queue_stats(), net.now, net)
        assert set(applied) == set(net.switch_names())
        for s, cfg in applied.items():
            assert net._switch_ecn[net._switch_id(s)] == cfg

    def test_rate_limit_between_decisions(self):
        net = loaded_net()
        pet = PETController(net.switch_names(), fast_cfg(delta_t=10.0))
        net.advance(1e-3)
        pet.decide(net.queue_stats(), net.now, net)
        net.advance(1e-3)
        applied = pet.decide(net.queue_stats(), net.now, net)
        assert applied == {}     # second tuning suppressed by delta_t

    def test_training_records_and_updates(self):
        net = loaded_net()
        pet = PETController(net.switch_names(), fast_cfg(update_interval=3))
        for _ in range(7):
            net.advance(1e-3)
            pet.decide(net.queue_stats(), net.now, net)
        assert len(pet.update_stats) == 2   # at steps 3 and 6
        assert all(a.updates == 2 for a in pet.trainer.agents.values())

    def test_eval_mode_does_not_update(self):
        net = loaded_net()
        pet = PETController(net.switch_names(), fast_cfg(update_interval=2))
        pet.set_training(False)
        for _ in range(5):
            net.advance(1e-3)
            pet.decide(net.queue_stats(), net.now, net)
        assert pet.update_stats == []
        assert all(len(a.buffer) == 0 for a in pet.trainer.agents.values())

    def test_eval_mode_greedy_is_deterministic(self):
        actions = []
        for _ in range(2):
            net = loaded_net(seed=5)
            pet = PETController(net.switch_names(), fast_cfg(seed=7))
            pet.set_training(False)
            net.advance(1e-3)
            applied = pet.decide(net.queue_stats(), net.now, net)
            actions.append(tuple(sorted((s, c.kmax_bytes)
                                        for s, c in applied.items())))
        assert actions[0] == actions[1]

    def test_checkpoint_roundtrip(self):
        net = loaded_net()
        a = PETController(net.switch_names(), fast_cfg(seed=1))
        b = PETController(net.switch_names(), fast_cfg(seed=2))
        b.load_state_dict(a.state_dict())
        s = net.switch_names()[0]
        obs = np.zeros(a.trainer.agents[s].config.obs_dim)
        np.testing.assert_allclose(
            a.trainer.agents[s].policy.probs(obs),
            b.trainer.agents[s].policy.probs(obs))

    def test_install_pretrained_broadcasts(self):
        net = loaded_net()
        pet = PETController(net.switch_names(), fast_cfg(seed=3))
        src = pet.trainer.agents[net.switch_names()[0]].state_dict()
        pet.install_pretrained(src)
        obs = np.zeros(pet.trainer.agents[net.switch_names()[0]].config.obs_dim)
        probs = [ag.policy.probs(obs) for ag in pet.trainer.agents.values()]
        for p in probs[1:]:
            np.testing.assert_allclose(p, probs[0])

    def test_ablated_features_zeroed(self):
        net = loaded_net()
        cfg = fast_cfg(use_incast=False, use_flow_ratio=False)
        pet = PETController(net.switch_names(), cfg)
        net.advance(1e-3)
        stats = net.queue_stats()
        pet.decide(stats, net.now, net)
        # features 4 and 5 of every switch's newest slot are masked to zero
        newest = pet.observer.history.observation()[:, -6:]
        assert not newest[:, 4:].any() and newest[:, :4].any()


class TestStaticControllers:
    def test_applies_once(self):
        net = tiny_net()
        ctrl = secn1()
        net.advance(1e-3)
        stats = net.queue_stats()
        first = ctrl.decide(stats, net.now, net)
        assert set(first) == set(stats)
        second = ctrl.decide(stats, net.now, net)
        assert second == {}

    def test_published_settings(self):
        assert secn1().config == ECNConfig(5_000, 200_000, 0.01)
        assert secn2().config == ECNConfig(100_000, 400_000, 0.01)

    def test_custom_config(self):
        c = StaticECNController(ECNConfig(1, 2, 0.5), name="x")
        assert c.name == "x"


class TestACCController:
    def _acc(self, net, seed=0):
        base = fast_cfg(seed=seed)
        return ACCController(net.switch_names(),
                             ACCConfig(base=base, seed=seed,
                                       batch_size=8))

    def test_base_config_masks_category2_features(self):
        net = tiny_net()
        acc = self._acc(net)
        assert not acc.config.base.use_incast
        assert not acc.config.base.use_flow_ratio

    def test_decide_applies_configs(self):
        net = loaded_net()
        acc = self._acc(net)
        net.advance(1e-3)
        applied = acc.decide(net.queue_stats(), net.now, net)
        assert set(applied) == set(net.switch_names())

    def test_global_replay_grows_with_experience(self):
        net = loaded_net()
        acc = self._acc(net)
        for _ in range(4):
            net.advance(1e-3)
            acc.decide(net.queue_stats(), net.now, net)
        # after the first interval every subsequent one closes transitions
        assert len(acc.global_replay) == 3 * len(net.switch_names())
        assert acc.global_replay.total_bytes_exchanged() > 0

    def test_overhead_report_fields(self):
        net = loaded_net()
        acc = self._acc(net)
        for _ in range(3):
            net.advance(1e-3)
            acc.decide(net.queue_stats(), net.now, net)
        rep = acc.overhead_report()
        assert rep["replay_entries"] > 0
        assert rep["bytes_exchanged_total"] > 0
        assert rep["replay_resident_bytes"] > 0

    def test_eval_mode_freezes_replay(self):
        net = loaded_net()
        acc = self._acc(net)
        acc.set_training(False)
        for _ in range(3):
            net.advance(1e-3)
            acc.decide(net.queue_stats(), net.now, net)
        assert len(acc.global_replay) == 0


class TestTrainingLoop:
    def test_run_control_loop_shapes(self):
        net = loaded_net()
        ctrl = secn1()
        result = run_control_loop(net, ctrl, intervals=5, delta_t=1e-3)
        assert result.intervals == 5
        assert len(result.reward_trace) == 5
        assert set(result.rewards_per_switch) == set(net.switch_names())

    def test_run_control_loop_callback(self):
        net = loaded_net()
        seen = []
        run_control_loop(net, secn1(), intervals=3, delta_t=1e-3,
                         on_interval=lambda i, now, stats: seen.append(i))
        assert seen == [0, 1, 2]

    def test_run_control_loop_validation(self):
        with pytest.raises(ValueError):
            run_control_loop(tiny_net(), secn1(), intervals=0, delta_t=1e-3)
