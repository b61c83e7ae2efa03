"""Coverage for the per-module PET rules (PET001–PET007).

One passing and one failing fixture snippet per rule id, noqa escape
hatches, scoping, the ``python -m repro.devtools`` entry point, and the
acceptance check that the repo's own ``src/`` tree is clean.  Each
snippet is written under ``tmp_path`` at a package path (with
``__init__.py`` markers) and run through the one rule engine.
"""

import os
import subprocess
import sys

import pytest

from repro.devtools.cli import devtools_main
from repro.devtools.rules import RULES, analyze_paths
from tests.test_devtools_analyze import _tree

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: path that places a snippet inside the determinism/unit scopes
SCOPED = "repro/netsim/fixture.py"
#: path outside every restricted scope
UNSCOPED = "repro/analysis/fixture.py"


@pytest.fixture
def rules_found(tmp_path_factory):
    """``rules_found(source, path=SCOPED)`` -> rule ids that fire."""
    def run(source, path=SCOPED):
        root = _tree(tmp_path_factory.mktemp("lint"), {path: source})
        return {f.rule for f in analyze_paths([str(root)])}
    return run


class TestPET001WallClock:
    def test_flags_time_time(self, rules_found):
        src = """
        import time
        def stamp():
            return time.time()
        """
        assert "PET001" in rules_found(src)

    def test_flags_datetime_now(self, rules_found):
        src = """
        import datetime
        def stamp():
            return datetime.datetime.now()
        """
        assert "PET001" in rules_found(src)

    def test_passes_virtual_time(self, rules_found):
        src = """
        def stamp(sim):
            return sim.now
        """
        assert "PET001" not in rules_found(src)

    def test_not_applied_outside_scope(self, rules_found):
        src = """
        import time
        def stamp():
            return time.time()
        """
        assert "PET001" not in rules_found(src, path=UNSCOPED)


class TestPET002Randomness:
    def test_flags_stdlib_random(self, rules_found):
        src = """
        import random
        def draw():
            return random.random()
        """
        assert "PET002" in rules_found(src)

    def test_flags_stdlib_from_import(self, rules_found):
        src = """
        from random import randint
        def draw():
            return randint(0, 10)
        """
        assert "PET002" in rules_found(src)

    def test_flags_numpy_module_level(self, rules_found):
        src = """
        import numpy as np
        def draw():
            return np.random.random()
        """
        assert "PET002" in rules_found(src)

    def test_flags_unseeded_default_rng(self, rules_found):
        src = """
        import numpy as np
        def make():
            return np.random.default_rng()
        """
        assert "PET002" in rules_found(src)

    def test_passes_seeded_default_rng(self, rules_found):
        src = """
        import numpy as np
        def make(seed):
            return np.random.default_rng(seed)
        """
        assert "PET002" not in rules_found(src)

    def test_passes_injected_generator_methods(self, rules_found):
        src = """
        def draw(rng):
            return rng.random() + rng.integers(10)
        """
        assert "PET002" not in rules_found(src)


class TestPET003TimeEquality:
    def test_flags_now_equality(self, rules_found):
        src = """
        def same(sim, t):
            return sim.now == t
        """
        assert "PET003" in rules_found(src)

    def test_flags_time_suffix_inequality(self, rules_found):
        src = """
        def differs(finish_time, start_time):
            return finish_time != start_time
        """
        assert "PET003" in rules_found(src)

    def test_passes_ordering(self, rules_found):
        src = """
        def later(sim, t):
            return sim.now >= t
        """
        assert "PET003" not in rules_found(src)

    def test_passes_tolerance(self, rules_found):
        src = """
        def close(finish_time, t, eps):
            return abs(finish_time - t) < eps
        """
        assert "PET003" not in rules_found(src)


class TestPET004UnitSuffixes:
    def test_flags_mixed_addition(self, rules_found):
        src = """
        def total(qlen_bytes, limit_kb):
            return qlen_bytes + limit_kb
        """
        assert "PET004" in rules_found(src)

    def test_flags_mixed_comparison(self, rules_found):
        src = """
        def over(qlen_bytes, cap_kb):
            return qlen_bytes > cap_kb
        """
        assert "PET004" in rules_found(src)

    def test_flags_mixed_assignment(self, rules_found):
        src = """
        def convert(size_kb):
            size_bytes = size_kb
            return size_bytes
        """
        assert "PET004" in rules_found(src)

    def test_passes_same_suffix(self, rules_found):
        src = """
        def total(qlen_bytes, pkt_bytes):
            return qlen_bytes + pkt_bytes
        """
        assert "PET004" not in rules_found(src)

    def test_passes_multiplicative_conversion(self, rules_found):
        src = """
        def convert(size_kb):
            size_bytes = size_kb * 1000
            return size_bytes
        """
        assert "PET004" not in rules_found(src)

    def test_scope_is_netsim_and_core_config(self, rules_found):
        src = """
        def total(qlen_bytes, limit_kb):
            return qlen_bytes + limit_kb
        """
        assert "PET004" in rules_found(src, path="repro/core/config.py")
        assert "PET004" not in rules_found(src, path="repro/core/reward.py")
        assert "PET004" not in rules_found(src, path=UNSCOPED)


class TestPET005ScheduleDelay:
    def test_flags_negative_literal(self, rules_found):
        src = """
        def go(sim, fn):
            sim.schedule(-1e-6, fn)
        """
        assert "PET005" in rules_found(src)

    def test_flags_bare_subtraction(self, rules_found):
        src = """
        def go(sim, fn, t0, t1):
            sim.schedule(t1 - t0, fn)
        """
        assert "PET005" in rules_found(src)

    def test_passes_clamped_subtraction(self, rules_found):
        src = """
        def go(sim, fn, t0, t1):
            sim.schedule(max(t1 - t0, 0.0), fn)
        """
        assert "PET005" not in rules_found(src)

    def test_passes_products_and_names(self, rules_found):
        src = """
        def go(sim, fn, pkt_bytes, rate_bps, delay):
            sim.schedule(pkt_bytes * 8.0 / rate_bps, fn)
            sim.schedule(delay, fn)
        """
        assert "PET005" not in rules_found(src)


class TestPET006MutableDefaults:
    def test_flags_list_default(self, rules_found):
        src = """
        def collect(items=[]):
            return items
        """
        assert "PET006" in rules_found(src)

    def test_flags_dict_call_default(self, rules_found):
        src = """
        def collect(table=dict()):
            return table
        """
        assert "PET006" in rules_found(src)

    def test_passes_none_default(self, rules_found):
        src = """
        def collect(items=None):
            return items or []
        """
        assert "PET006" not in rules_found(src)


class TestPET007BuiltinHash:
    def test_flags_bare_hash_call(self, rules_found):
        src = """
        def pick(flow_id, n):
            return hash((flow_id, 0x9E37)) % n
        """
        assert "PET007" in rules_found(src)

    def test_passes_method_and_hashlib(self, rules_found):
        src = """
        import hashlib
        def digest(obj, payload):
            return obj.hash(payload), hashlib.sha256(payload)
        """
        assert "PET007" not in rules_found(src)

    def test_passes_explicit_mix(self, rules_found):
        src = """
        from repro.netsim.routing import ecmp_hash
        def pick(flow_id, n):
            return ecmp_hash(flow_id, n)
        """
        assert "PET007" not in rules_found(src)

    def test_not_applied_outside_scope(self, rules_found):
        src = """
        def pick(flow_id, n):
            return hash(flow_id) % n
        """
        assert "PET007" not in rules_found(src, path=UNSCOPED)


class TestNoqa:
    def test_bare_noqa_suppresses_all(self, rules_found):
        src = """
        import time
        def stamp():
            return time.time()  # pet: noqa
        """
        assert rules_found(src) == set()

    def test_rule_specific_noqa(self, rules_found):
        src = """
        def total(qlen_bytes, limit_kb):
            return qlen_bytes + limit_kb  # pet: noqa-PET004
        """
        assert "PET004" not in rules_found(src)

    def test_noqa_for_other_rule_does_not_suppress(self, rules_found):
        src = """
        def total(qlen_bytes, limit_kb):
            return qlen_bytes + limit_kb  # pet: noqa-PET001
        """
        assert "PET004" in rules_found(src)


class TestViolationReporting:
    def test_violation_carries_location_and_rule(self, tmp_path):
        src = "import time\n\ndef f():\n    return time.time()\n"
        (v,) = analyze_paths([str(_tree(tmp_path, {SCOPED: src}))])
        assert v.rule == "PET001"
        assert v.line == 4
        assert SCOPED in v.format() and "PET001" in v.format()

    def test_select_filters_rules(self, tmp_path):
        src = """
        import time
        def f(items=[]):
            return time.time()
        """
        vs = analyze_paths([str(_tree(tmp_path, {SCOPED: src}))],
                           select=["PET006"])
        assert {v.rule for v in vs} == {"PET006"}

    def test_text_names_the_enclosing_symbol(self, tmp_path, capsys):
        # Per-node findings used to print an empty `[]` symbol.
        root = _tree(tmp_path, {SCOPED: """
            import time
            T0 = time.time()
            def stamp():
                return time.time()
        """})
        assert devtools_main([str(root), "--no-baseline"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert "PET001 [repro.netsim.fixture] " in lines[0]
        assert "PET001 [repro.netsim.fixture.stamp] " in lines[1]
        assert not any("[]" in line for line in lines)

    def test_every_rule_has_fixture_coverage(self):
        # the classes above cover the per-module part of the catalogue
        per_module = {r for r in RULES if r.startswith("PET0")}
        assert per_module == {"PET001", "PET002", "PET003", "PET004",
                              "PET005", "PET006", "PET007"}
        covered = {name[4:10] for name in globals() if name.startswith("TestPET")}
        assert covered == per_module


class TestCLIEntryPoint:
    def _run(self, *args, cwd=REPO_ROOT):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.devtools", *args],
            capture_output=True, text=True, cwd=cwd, env=env)

    def test_repo_src_tree_is_clean(self):
        proc = self._run("src")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_violating_file_fails_with_rule_and_location(self, tmp_path):
        root = _tree(tmp_path, {"repro/netsim/bad.py":
                                "import time\n\ndef f():\n    return time.time()\n"})
        proc = self._run(str(root / "repro" / "netsim" / "bad.py"))
        assert proc.returncode == 1
        assert "PET001" in proc.stdout
        assert "bad.py:4" in proc.stdout

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for rule in RULES:
            assert rule in proc.stdout

    def test_unknown_rule_id_is_usage_error(self):
        proc = self._run("--select", "PET999", "src")
        assert proc.returncode == 2

    def test_nonexistent_path_is_usage_error(self):
        # Regression: a typo'd path used to exit 0 silently.
        proc = self._run("no/such/path")
        assert proc.returncode == 2
        assert "no such path" in proc.stderr

    def test_lint_paths_walks_directories(self, tmp_path):
        _tree(tmp_path, {"repro/netsim/ok.py": "def f(sim):\n    return sim.now\n",
                         "repro/netsim/bad.py": "def f(xs=[]):\n    return xs\n"})
        vs = analyze_paths([str(tmp_path)])
        assert {v.rule for v in vs} == {"PET006"}

    def test_sanitizer_import_leaves_the_analyzer_unloaded(self, tmp_path):
        # Every pytest run, CLI and benchmark child imports the sanitizer.
        probe = ("import sys, repro.devtools.sanitize; print(sorted("
                 "m for m in sys.modules if m.startswith('repro.devtools.')))")
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")})
        assert proc.stdout.strip() == "['repro.devtools.sanitize']"
        _tree(tmp_path, {"src/repro/netsim/ok.py": "def f(sim):\n    return sim.now\n"})
        proc = self._run("src", cwd=str(tmp_path))
        assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("rule", sorted(RULES))
def test_rule_catalogue_has_description(rule):
    assert RULES[rule]
