"""repro — reproduction of PET: Multi-agent Independent PPO-based Automatic
ECN Tuning for High-Speed Data Center Networks (CLUSTER 2025).

Top-level layout
----------------
``repro.core``
    The paper's contribution: the PET controller (per-switch IPPO agents,
    six-factor state, action codec, reward, NCM, ECN-CM, hybrid training).
``repro.rl``
    Pure-NumPy reinforcement-learning substrate: one packed MLP with
    Adam, PPO/IPPO, Double DQN with local/global replay.
``repro.netsim``
    Discrete-event packet-level data-center network simulator plus a fast
    fluid-model simulator, standing in for ns-3.
``repro.traffic``
    CDF-driven workload generation (Web Search, Data Mining), incast, and
    traffic-pattern schedules, standing in for the Alibaba traffic generator.
``repro.gymenv``
    Gym-style single- and multi-agent environment bridge (ns3-gym analogue).
``repro.baselines``
    Static ECN baselines (SECN1/SECN2) and the ACC (DDQN) controller.
``repro.analysis``
    FCT/queue statistics and experiment reporting.
"""

__version__ = "1.0.0"

from repro.core.config import PETConfig
from repro.core.pet import PETController

__all__ = ["PETConfig", "PETController", "__version__"]
