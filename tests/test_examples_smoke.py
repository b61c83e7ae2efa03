"""Smoke tests: every example imports cleanly and exposes main().

Running the examples end-to-end takes minutes (they train agents); CI
verifies their imports, argument-free entry points, that the
quickstart's scenario construction is valid, and runs the gym and
multi-queue examples shrunk (one short episode, one update) — the full
runs are documented in the README.
"""

import importlib.util
import os
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
EXAMPLES = ["quickstart", "incast_deep_dive", "packet_level_demo",
            "gym_training", "pattern_switching", "multiqueue_tuning"]


def _load(name):
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_imports_and_has_main(name):
    module = _load(name)
    assert callable(getattr(module, "main", None)), \
        f"example {name} must define main()"


def test_all_examples_present_on_disk():
    files = {f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")}
    assert files == {f"{n}.py" for n in EXAMPLES}


def test_quickstart_scenario_is_valid():
    module = _load("quickstart")
    # the example's scenario must construct without touching the network
    import inspect
    src = inspect.getsource(module.main)
    assert "ScenarioConfig" in src and "run_scenario" in src


def test_gym_training_runs_one_short_episode(monkeypatch, capsys):
    """One episode of 120 intervals: long enough for ``agent.update`` to
    fire (every 100 steps), then the policy's top three actions."""
    module = _load("gym_training")
    monkeypatch.setattr(module, "EPISODES", 1)
    monkeypatch.setattr(module, "INTERVALS", 120)
    module.main()
    out = capsys.readouterr().out
    assert "episode  1: mean reward" in out
    top = [line for line in out.splitlines() if line.startswith("  p=")]
    assert len(top) == 3
    probs = [float(line.split(":")[0][4:]) for line in top]
    assert probs == sorted(probs, reverse=True)
    assert all(0.0 <= p <= 1.0 for p in probs)


def test_multiqueue_tuning_trains_and_applies_per_queue_thresholds(
        monkeypatch, capsys):
    """120 training intervals, so the switch models update once (every
    100 steps), then five greedy intervals: every queue of the hot leaf
    gets a threshold row."""
    module = _load("multiqueue_tuning")
    monkeypatch.setattr(module, "TRAIN_INTERVALS", 120)
    monkeypatch.setattr(module, "EVAL_INTERVALS", 5)
    module.main()
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()
            if line.strip().split(" ")[0].isdigit()]
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3, 4]
    assert [r[1] for r in rows] == ["HOT"] + ["cold"] * 4
    assert all(0 < float(r[2]) <= float(r[3]) for r in rows)
    assert "hot queue mean occupancy:" in out
