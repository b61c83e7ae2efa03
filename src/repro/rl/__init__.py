"""Pure-NumPy reinforcement-learning substrate.

The paper implements its agents in PyTorch; this package reimplements the
required pieces from scratch so the repository has no deep-learning
dependency:

- :mod:`repro.rl.nn` — dense layers, activations, and :class:`~repro.rl.nn.MLP`
  with exact manual backpropagation.
- :mod:`repro.rl.optim` — Adam and SGD optimizers.
- :mod:`repro.rl.policy` — categorical (softmax) policies with epsilon
  exploration and exponential decay (paper Eq. 13).
- :mod:`repro.rl.gae` — Generalized Advantage Estimation (paper Eq. 9–10).
- :mod:`repro.rl.ppo` — single-agent PPO with the clipped surrogate
  objective (paper Eq. 11) and squared-error value loss (paper Eq. 12).
- :mod:`repro.rl.ippo` — Independent PPO: one PPO learner per agent, no
  parameter or experience sharing (the DTDE paradigm of the paper).
- :mod:`repro.rl.stacked` — one stacked learner: the agents' weights,
  Adam moments and rollouts in packed ``(A, …)`` arrays, so one
  ``matmul`` per layer serves a whole fleet's inference and the PPO
  update runs as stacked calls, one agent group per core.
- :mod:`repro.rl.replay` — uniform replay buffers, including the *global*
  replay buffer that ACC's DDQN requires (used to quantify its overhead).
- :mod:`repro.rl.ddqn` — Double DQN learner (the ACC baseline's algorithm).
"""

from repro.rl.nn import MLP, Linear, Tanh, ReLU
from repro.rl.optim import Adam, SGD
from repro.rl.policy import CategoricalPolicy, ExplorationSchedule
from repro.rl.gae import compute_gae, discounted_returns
from repro.rl.ppo import PPOAgent, PPOConfig, RolloutBuffer
from repro.rl.ippo import IPPOTrainer
from repro.rl.replay import ReplayBuffer, GlobalReplayBuffer, Transition
from repro.rl.ddqn import DDQNAgent, DDQNConfig

__all__ = [
    "MLP", "Linear", "Tanh", "ReLU",
    "Adam", "SGD",
    "CategoricalPolicy", "ExplorationSchedule",
    "compute_gae", "discounted_returns",
    "PPOAgent", "PPOConfig", "RolloutBuffer",
    "IPPOTrainer",
    "ReplayBuffer", "GlobalReplayBuffer", "Transition",
    "DDQNAgent", "DDQNConfig",
]
