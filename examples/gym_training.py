"""Training a custom agent through the Gym-style bridge (ns3-gym analogue).

Shows the environment API the paper couples its learners to: a
single-agent :class:`DCNEnv` controlling one switch.  Any RL library
speaking ``reset()/step()`` plugs in here; we use the repo's own
NumPy PPO, an :class:`IPPOTrainer` of one agent, to keep the example
dependency-free, and print the learning curve plus what the final
policy chose.

Run:  python examples/gym_training.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.core.config import PETConfig
from repro.gymenv import DCNEnv, EnvConfig
from repro.netsim.fluid import FluidConfig
from repro.rl.ippo import IPPOTrainer
from repro.rl.ppo import PPOConfig

EPISODES = 10
INTERVALS = 200


def main() -> None:
    env = DCNEnv(EnvConfig(
        pet=PETConfig(delta_t=1e-3, seed=0),
        fluid=FluidConfig(n_spine=2, n_leaf=4, hosts_per_leaf=8,
                          host_rate_bps=10e9, spine_rate_bps=40e9),
        workload="websearch", load=0.6,
        episode_intervals=INTERVALS, seed=0))
    print(f"observation dim: {env.obs_dim}, actions: {env.n_actions}")

    obs = env.reset()
    s = env.agent_switch                  # the one agent's id
    trainer = IPPOTrainer([s], PPOConfig(
        obs_dim=env.obs_dim, n_actions=env.n_actions, seed=0,
        actor_lr=3e-3, critic_lr=5e-3, epochs=10, gamma=0.9,
        gae_lambda=0.8, entropy_coef=0.003))

    steps = 0
    for ep in range(EPISODES):
        total = 0.0
        for _ in range(INTERVALS):
            d = trainer.act({s: obs})
            next_obs, reward, done, info = env.step(d[s]["action"])
            # A time-limit cut-off is a truncation: GAE bootstraps
            # V(s_T) from next_obs instead of treating it as terminal.
            trainer.record({s: obs}, d, {s: reward}, {s: done},
                           {s: info["TimeLimit.truncated"]})
            obs = next_obs
            total += reward
            steps += 1
            if steps % 100 == 0:
                trainer.update({s: obs})
        print(f"episode {ep + 1:2d}: mean reward {total / INTERVALS:.3f}")
        obs = env.reset()

    probs = trainer.learner.probs([0], obs)[0, 0]
    print("\ntop actions of the trained policy:")
    for a in np.argsort(probs)[-3:][::-1]:
        ecn = env.codec.decode(int(a))
        print(f"  p={probs[a]:.2f}: Kmin={ecn.kmin_bytes // 1000}KB "
              f"Kmax={ecn.kmax_bytes // 1000}KB Pmax={ecn.pmax}")


if __name__ == "__main__":
    main()
