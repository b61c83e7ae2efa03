"""Gym-style environment bridge (ns3-gym analogue).

The paper couples its PyTorch agents to ns-3 through ns3-gym; this
package provides the same ``reset()/step(action)`` contract over either
of this repo's simulators:

- :class:`~repro.gymenv.env.MultiAgentDCNEnv` — per-switch
  observation/action dictionaries, the DTDE setting PET trains in.
- :class:`~repro.gymenv.env.DCNEnv` — its one-switch view (one tuned
  switch, the rest static), handy for quick experimentation and for
  validating the learning stack on a simpler problem.
"""

from repro.gymenv.env import DCNEnv, EnvConfig, MultiAgentDCNEnv

__all__ = ["DCNEnv", "EnvConfig", "MultiAgentDCNEnv"]
