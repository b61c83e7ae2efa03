"""``benchmarks/scale/step_cost.py``: a point splits the leaf–spine
sub-step into phases by wrapping what the step calls through —
``fluid.flow_phase``, ``fluid.queue_phase``, ``fluid.feedback_phase``
and each network's ``_activate_due`` — so a step that stops calling
through one of them, or phases that stop covering the timed sub-step,
must fail the sweep, not print zeros."""

import importlib.util
import os
import sys
from types import SimpleNamespace

import pytest

from repro.netsim import fluid

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                       "benchmarks", "scale", "step_cost.py")


@pytest.fixture
def step_cost(monkeypatch):
    """The sweep as a module; its ``sys.path`` edits are undone after."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("step_cost", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("replicas", [1, 3])
def test_point_splits_the_sub_step(step_cost, replicas):
    row = step_cost.point("fig4", 0.6, replicas, seed=0, warm=2, ticks=3)
    assert row["active_flows"] > 0 and row["us_per_substep"] > 0
    assert set(row["phases_us"]) == set(step_cost.PHASES)
    assert all(v > 0 for v in row["phases_us"].values())
    assert abs(sum(row["phases_us"].values())
               / row["phased_us_per_substep"] - 1.0) <= step_cost.MAX_MISS
    assert row["cpu_count"] == os.cpu_count()
    # the wrappers are gone again
    for name in ("flow_phase", "queue_phase", "feedback_phase"):
        assert getattr(fluid, name).__module__ == "repro.netsim.fluid"


def test_point_without_samples_exits_non_zero(step_cost, monkeypatch):
    """The phase wrappers land on a stand-in namespace the step never
    reads — as if the step called the phases some other way."""
    monkeypatch.setattr(step_cost, "fluid", SimpleNamespace(**vars(fluid)))
    with pytest.raises(SystemExit) as exc:
        step_cost.point("fig4", 0.6, 1, seed=0, warm=1, ticks=2)
    assert "flow_phase wrapper saw nothing" in str(exc.value.code)


def test_point_whose_phases_miss_the_sub_step_exits_non_zero(step_cost,
                                                             monkeypatch):
    monkeypatch.setattr(step_cost, "MAX_MISS", -1.0)
    with pytest.raises(SystemExit) as exc:
        step_cost.point("fig4", 0.6, 1, seed=0, warm=1, ticks=2)
    assert "the phases cover" in str(exc.value.code)
