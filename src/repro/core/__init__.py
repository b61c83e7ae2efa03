"""PET — the paper's contribution.

- :mod:`repro.core.config` — all tunables with the paper's §5.2 defaults.
- :mod:`repro.core.action` — discrete action codec ``K = alpha * 2^n KB``
  (Eq. 5) with Pmax on a 5% grid.
- :mod:`repro.core.state` — the six-factor state (Eq. 2) of a set of
  records as one matrix, its normalization, the k-slot history window
  (Eq. 3), and the feature masks used by the Fig. 9 ablation.
- :mod:`repro.core.reward` — ``r = beta1*T + beta2*La`` (Eq. 6-8), one
  column per set of records.
- :mod:`repro.core.ncm` — Network Condition Monitor: monitoring,
  computation & analysis (incast degree, mice/elephant ratio), and the
  scheduled + threshold cleanup strategies (§4.5.1), one columnar
  table for a whole fleet.
- :mod:`repro.core.observer` — :class:`~repro.core.observer.FleetObserver`:
  a collection's telemetry to every switch's observation and reward in
  one pass (NCM → state → history, and Eq. 6).
- :mod:`repro.core.ecn_cm` — ECN Configuration Module: decodes actions
  and applies thresholds, rate-limited to one tuning per Δt (§4.2.2).
- :mod:`repro.core.pet` — :class:`~repro.core.pet.PETController`, the
  DTDE multi-agent orchestration (one IPPO learner per switch).
- :mod:`repro.core.multiqueue` —
  :class:`~repro.core.multiqueue.MultiQueuePETController` (§4.5.2): one
  switch model applied per queue, observing through the same fleet forms
  (imported from its own module, not re-exported here).
- :mod:`repro.core.training` — hybrid offline pre-training + online
  incremental training (§4.4).
"""

from repro.core.config import PETConfig
from repro.core.action import ActionCodec
from repro.core.state import HistoryWindow, StateBuilder, TelemetryColumns
from repro.core.reward import RewardComputer
from repro.core.ncm import FleetNCM
from repro.core.observer import FleetObservation, FleetObserver
from repro.core.ecn_cm import ECNConfigModule
from repro.core.pet import PETController
from repro.core.training import pretrain_offline_multi, run_control_loop

__all__ = [
    "PETConfig", "ActionCodec", "StateBuilder", "HistoryWindow",
    "TelemetryColumns", "RewardComputer", "FleetNCM", "FleetObserver",
    "FleetObservation",
    "ECNConfigModule", "PETController",
    "pretrain_offline_multi", "run_control_loop",
]
