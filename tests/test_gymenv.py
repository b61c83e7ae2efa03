"""Tests for the Gym-style environment bridge (ns3-gym analogue)."""

import numpy as np
import pytest

from repro.core.config import PETConfig
from repro.gymenv import DCNEnv, EnvConfig, MultiAgentDCNEnv
from repro.gymenv import env as env_mod
from repro.netsim.fluid import FluidConfig


def env_config(**kw):
    kw.setdefault("pet", PETConfig(delta_t=1e-3, seed=0))
    kw.setdefault("fluid", FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9))
    kw.setdefault("episode_intervals", 5)
    kw.setdefault("load", 0.4)
    return EnvConfig(**kw)


class TestDCNEnv:
    def test_reset_returns_obs(self):
        env = DCNEnv(env_config())
        obs = env.reset()
        assert obs.shape == (env.obs_dim,)
        assert np.all(np.isfinite(obs))

    def test_step_contract(self):
        env = DCNEnv(env_config())
        env.reset()
        obs, reward, done, info = env.step(0)
        assert obs.shape == (env.obs_dim,)
        assert np.isfinite(reward)
        assert not done
        assert "utilization" in info and "ecn" in info

    def test_episode_terminates(self):
        env = DCNEnv(env_config(episode_intervals=3))
        env.reset()
        dones = [env.step(0)[2] for _ in range(3)]
        assert dones == [False, False, True]

    def test_step_before_reset_raises(self):
        env = DCNEnv(env_config())
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_action_changes_switch_ecn(self):
        env = DCNEnv(env_config())
        env.reset()
        a = env.n_actions - 1
        env.step(a)
        applied = env.net._switch_ecn[env.net._switch_id(env.agent_switch)]
        assert applied == env.codec.decode(a)

    def test_reset_gives_fresh_episode(self):
        env = DCNEnv(env_config(episode_intervals=2))
        env.reset()
        env.step(0)
        env.step(0)
        obs = env.reset()
        assert obs.shape == (env.obs_dim,)
        assert env.fleet._t == 0

    def test_invalid_action_rejected(self):
        env = DCNEnv(env_config())
        env.reset()
        with pytest.raises(IndexError):
            env.step(env.n_actions)

    def test_reward_higher_when_queue_short(self):
        """Empty network should earn the full latency term."""
        env = DCNEnv(env_config(load=0.05))
        env.reset()
        _, reward, _, info = env.step(0)
        assert info["avg_qlen_bytes"] < 10_000
        assert reward > env.config.pet.beta2 * 0.8


class TestDefaultFabric:
    @pytest.mark.parametrize("make", [DCNEnv, MultiAgentDCNEnv])
    def test_episodes_start_at_the_config_seed(self, make, monkeypatch):
        """Reset ``e`` (from 0) builds its fabric on ``config.seed + e``,
        whichever env is asked."""
        seeds = []

        class Spy(env_mod.FluidNetwork):
            def __init__(self, *args, **kwargs):
                seeds.append(kwargs["seed"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(env_mod, "FluidNetwork", Spy)
        env = make(env_config(seed=5))
        env.reset()
        env.reset()
        assert seeds == [5, 6]


class TestMultiAgentDCNEnv:
    def test_reset_returns_per_switch_obs(self):
        env = MultiAgentDCNEnv(env_config())
        obs = env.reset()
        assert set(obs) == set(env.agents)
        assert len(env.agents) == 3    # 2 leaves + 1 spine
        for o in obs.values():
            assert o.shape == (env.obs_dim,)

    def test_step_contract(self):
        env = MultiAgentDCNEnv(env_config())
        obs = env.reset()
        actions = {s: 0 for s in env.agents}
        obs, rewards, dones, info = env.step(actions)
        assert set(rewards) == set(env.agents)
        assert all(np.isfinite(r) for r in rewards.values())
        assert not any(dones.values())
        assert "mean_utilization" in info

    def test_done_for_all_agents_at_horizon(self):
        env = MultiAgentDCNEnv(env_config(episode_intervals=2))
        env.reset()
        env.step({s: 0 for s in env.agents})
        _, _, dones, _ = env.step({s: 0 for s in env.agents})
        assert all(dones.values())

    def test_per_switch_actions_apply_independently(self):
        env = MultiAgentDCNEnv(env_config())
        env.reset()
        acts = {s: i % env.n_actions for i, s in enumerate(env.agents)}
        env.step(acts)
        for s, a in acts.items():
            assert env.net._switch_ecn[env.net._switch_id(s)] == \
                env.codec.decode(a)

    def test_step_before_reset_raises(self):
        env = MultiAgentDCNEnv(env_config())
        with pytest.raises(RuntimeError):
            env.step({})


class TestIPPOOnEnv:
    def test_ippo_trains_against_multiagent_env(self):
        """Integration: the paper's learner runs on the paper's env API."""
        from repro.rl.ippo import IPPOTrainer
        from repro.rl.ppo import PPOConfig

        env = MultiAgentDCNEnv(env_config(episode_intervals=8))
        obs = env.reset()
        trainer = IPPOTrainer(env.agents, PPOConfig(
            obs_dim=env.obs_dim, n_actions=env.n_actions, hidden=(16, 16),
            seed=0))
        for _ in range(8):
            decisions = trainer.act(obs)
            actions = {s: d["action"] for s, d in decisions.items()}
            next_obs, rewards, dones, _ = env.step(actions)
            trainer.record(obs, decisions, rewards, dones)
            obs = next_obs
        stats = trainer.update(obs)
        assert set(stats) == set(env.agents)


class TestTimeLimitTruncation:
    """The horizon is a time limit, not a terminal state: done comes with
    info["TimeLimit.truncated"] so training loops can bootstrap V(s_T)."""

    def test_single_agent_flags_truncation_at_limit(self):
        env = DCNEnv(env_config(episode_intervals=2))
        env.reset()
        _, _, done, info = env.step(0)
        assert not done
        assert info["TimeLimit.truncated"] is False
        _, _, done, info = env.step(0)
        assert done
        assert info["TimeLimit.truncated"] is True

    def test_multiagent_flags_truncation_at_limit(self):
        env = MultiAgentDCNEnv(env_config(episode_intervals=2))
        obs = env.reset()
        acts = {a: 0 for a in obs}
        _, _, dones, info = env.step(acts)
        assert not any(dones.values())
        assert info["TimeLimit.truncated"] is False
        _, _, dones, info = env.step(acts)
        assert all(dones.values())
        assert info["TimeLimit.truncated"] is True
