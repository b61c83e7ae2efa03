"""What BENCHMARK.json declares, for every module of the harness."""

from __future__ import annotations

import json
import os
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))

#: The tail is an end-to-end metric: every report prints it with the others
#: and ``--compare`` judges it by ISSUE's bound.  BENCHMARK.json can only
#: list it among the per-layer metrics: the driver refuses a bounded
#: metric whose spread over ten runs exceeds its bound, caps bounds at
#: 0.25, and on the 2-core box this was written on the spread of the tail
#: is 20-36 % (README.md, "Bounds").
TAIL = {"name": "tick_p95_ms", "unit": "ms", "better": "lower", "bound": 0.15}


def end_to_end(spec: Dict[str, Any]) -> list:
    """The eight end-to-end metrics: BENCHMARK.json's, the tail after the
    median."""
    bounded = spec["end_to_end"]
    at = [m["name"] for m in bounded].index("tick_p50_ms") + 1
    return bounded[:at] + [TAIL] + bounded[at:]


def workload_names(spec: Dict[str, Any]) -> list:
    return [w["name"] for w in spec["workloads"]]


def load_spec() -> Dict[str, Any]:
    """BENCHMARK.json: the one place metric names, units and bounds live."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)
