"""``benchmarks/scale/fabric_cost.py``: a trial counts what the step does
by wrapping ``flow_phase`` and the network's ``_open_window``, which the
step calls through, so a step that stops calling through one of them must
fail the sweep, not print zeros."""

import importlib.util
import os
import sys
from types import SimpleNamespace

import pytest

from repro.netsim import fluid, shard

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                       "benchmarks", "scale", "fabric_cost.py")


@pytest.fixture
def fabric_cost(monkeypatch):
    """The sweep as a module; its ``sys.path`` edits are undone after."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("fabric_cost", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trial(module):
    return module.trial(4, 0.01, seed=0, warm=1, ticks=1)


def test_trial_counts_every_sub_step(fabric_cost):
    row = _trial(fabric_cost)
    assert row["active_flows"] > 0 and row["live_queues"] > 0
    # a window's block holds every queue live at any of its sub-steps
    assert row["window_queues"] >= row["live_queues"]
    assert row["admissions_per_substep"] > 0
    assert row["finishes_per_substep"] >= 0
    assert row["epoch_median_substeps"] >= 1
    # the wrapper is gone again
    assert fluid.flow_phase.__module__ == "repro.netsim.fluid"


def _bypass_flow_phase_wrapper(fabric_cost, monkeypatch):
    """The trial's wrapper lands on a stand-in namespace the step never
    reads — as if the step called the function some other way."""
    monkeypatch.setattr(fabric_cost, "fluid", SimpleNamespace(**vars(fluid)))


def _bypass_window_wrapper(fabric_cost, monkeypatch):
    """The step opens its windows without going through the network's
    ``_open_window`` attribute, where the trial's wrapper is."""
    step = shard.ShardedFluidNetwork._step

    def unwrapped_step(self, dt, steps=1):
        wrapper = vars(self).pop("_open_window", None)
        try:
            step(self, dt, steps)
        finally:
            if wrapper is not None:
                self._open_window = wrapper

    monkeypatch.setattr(shard.ShardedFluidNetwork, "_step", unwrapped_step)


@pytest.mark.parametrize("bypass, wrapped", [
    (_bypass_flow_phase_wrapper, "fluid.flow_phase"),
    (_bypass_window_wrapper, "ShardedFluidNetwork._open_window")],
    ids=["fluid", "shard"])
def test_trial_without_samples_exits_non_zero(fabric_cost, monkeypatch,
                                              bypass, wrapped):
    bypass(fabric_cost, monkeypatch)
    with pytest.raises(SystemExit) as exc:
        _trial(fabric_cost)
    assert wrapped in str(exc.value.code)       # a message: status 1
