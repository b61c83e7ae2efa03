"""``benchmarks/scale/fabric_cost.py``: a trial counts what the step does
by wrapping the module attributes the step calls through, so a step that
stops calling through one of them must fail the sweep, not print zeros."""

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
    assert row["admissions_per_substep"] > 0
    assert row["finishes_per_substep"] >= 0
    assert row["epoch_median_substeps"] >= 1
    # the wrappers are gone again
    assert fluid.flow_phase.__module__ == "repro.netsim.fluid"
    assert shard.integrate_queue_block is fluid.integrate_queue_block


@pytest.mark.parametrize("real, wrapped", [(fluid, "flow_phase"),
                                           (shard, "integrate_queue_block")],
                         ids=["fluid", "shard"])
def test_trial_without_samples_exits_non_zero(fabric_cost, monkeypatch,
                                              real, wrapped):
    """The trial's wrapper lands on a stand-in namespace the step never
    reads — as if the step called the function some other way."""
    name = real.__name__.rsplit(".", 1)[1]
    monkeypatch.setattr(fabric_cost, name, SimpleNamespace(**vars(real)))
    with pytest.raises(SystemExit) as exc:
        _trial(fabric_cost)
    assert f"{name}.{wrapped}" in str(exc.value.code)   # a message: status 1
