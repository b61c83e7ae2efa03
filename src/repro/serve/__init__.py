"""repro.serve — supervised policy serving for the tuning control plane.

The batch experiment runner answers "which scheme wins?"; this package
answers "how do you run the winner without trusting it?".  It is the
deployment story the paper leaves implicit (§4.4's offline-pretrain →
online-deploy flow), built from parts that already exist in the repo:

- :mod:`repro.serve.plane` — the tick loop: chaos, telemetry (retried),
  deadline-bounded buffered decides, shadow scoring, gate windows,
  checkpoint hot-reload, health;
- :mod:`repro.serve.lifecycle` — shadow → canary → promoted records and
  the :class:`~repro.serve.lifecycle.BufferedNetwork` write barrier;
- :mod:`repro.serve.gate` — the windowed no-regression promotion gate;
- :mod:`repro.serve.deadline` — per-decide wall-clock budgets on
  replaceable worker threads;
- :mod:`repro.serve.backoff` — retry with exponential backoff;
- :mod:`repro.serve.supervisor` — watchdog-restarted rollout thread
  (imported from its own module, not re-exported here);
- :mod:`repro.serve.server` — the stdlib HTTP face (``/health``,
  ``/ready``, ``/state``, ``/action``, ``/reset``, ``/rollout``);
- :mod:`repro.serve.cli` — ``python -m repro serve`` (and the CI
  ``--smoke`` invariant check).

See docs/SERVING.md for the lifecycle state machine, gate thresholds,
and the failure-mode table.
"""

from repro.serve.backoff import RetryExhausted, RetryPolicy, retry_call
from repro.serve.deadline import DeadlineDecider, DecideOutcome
from repro.serve.gate import (GateConfig, GateDecision, MetricWindow,
                              PromotionGate, WindowSummary)
from repro.serve.lifecycle import (BufferedNetwork, LifecycleError,
                                   PolicyRecord, PolicyRegistry)
from repro.serve.plane import ControlPlane, ServeConfig
from repro.serve.server import PolicyServer

__all__ = [
    "RetryPolicy", "RetryExhausted", "retry_call",
    "DeadlineDecider", "DecideOutcome",
    "GateConfig", "GateDecision", "MetricWindow", "PromotionGate",
    "WindowSummary",
    "BufferedNetwork", "LifecycleError", "PolicyRecord", "PolicyRegistry",
    "ControlPlane", "ServeConfig",
    "PolicyServer",
]
