"""Pure-NumPy reinforcement-learning substrate.

The paper implements its agents in PyTorch; this package reimplements the
required pieces from scratch so the repository has no deep-learning
dependency:

- :mod:`repro.rl.stacked` — the one MLP (:class:`~repro.rl.stacked.PackedMLP`:
  networks as packed parameter rows, with exact manual backpropagation,
  gradient clipping and Adam), the action sampler, and one stacked PPO
  learner: the agents' weights, Adam moments and rollouts in packed
  ``(A, …)`` arrays, so one ``matmul`` per layer serves a whole fleet's
  inference and the PPO update runs as stacked calls, one agent group
  per core.  A lone agent is its one-row case.
- :mod:`repro.rl.optim` — Adam's elementwise step over packed rows.
- :mod:`repro.rl.policy` — the softmax policy head and the exponentially
  decaying exploration rate (paper Eq. 13).
- :mod:`repro.rl.gae` — Generalized Advantage Estimation (paper Eq. 9–10).
- :mod:`repro.rl.ppo` — PPO's hyperparameters: the clipped surrogate
  objective (paper Eq. 11) and squared-error value loss (paper Eq. 12).
- :mod:`repro.rl.ippo` — Independent PPO: one PPO learner per agent, no
  parameter or experience sharing (the DTDE paradigm of the paper); the
  one way to act, record and update, for a fleet or a lone agent.
- :mod:`repro.rl.replay` — uniform replay buffers, including the *global*
  replay buffer that ACC's DDQN requires (used to quantify its overhead).
- :mod:`repro.rl.ddqn` — Double DQN learner (the ACC baseline's algorithm).
"""

from repro.rl.policy import ExplorationSchedule
from repro.rl.gae import compute_gae, discounted_returns
from repro.rl.ppo import PPOConfig
from repro.rl.ippo import IPPOTrainer
from repro.rl.stacked import PackedMLP
from repro.rl.replay import ReplayBuffer, GlobalReplayBuffer, Transition
from repro.rl.ddqn import DDQNAgent, DDQNConfig

__all__ = [
    "PackedMLP", "ExplorationSchedule",
    "compute_gae", "discounted_returns",
    "PPOConfig",
    "IPPOTrainer",
    "ReplayBuffer", "GlobalReplayBuffer", "Transition",
    "DDQNAgent", "DDQNConfig",
]
