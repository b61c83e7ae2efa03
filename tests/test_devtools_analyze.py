"""Tests for the interprocedural PET rules and the one CLI/report/baseline.

Each rule gets a synthetic fixture package (positive, negative, and
``# pet: noqa``-suppressed variants) written under ``tmp_path`` with
proper ``__init__.py`` markers so module names resolve as ``repro.*``.
The CLI tests cover exit codes (0 clean, 1 findings, 2 usage/parse
errors), the SARIF document shape, and the baseline round trip.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.devtools.cli import devtools_main
from repro.devtools.model import build_program
from repro.devtools.report import (load_baseline, save_baseline,
                                   split_by_baseline, to_sarif)
from repro.devtools.rules import _REGISTRY, RULES, analyze_paths

REPO = Path(__file__).resolve().parent.parent


def _tree(root: Path, files: dict) -> Path:
    """Write a fixture tree; add __init__.py to every package dir."""
    for rel, src in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src), encoding="utf-8")
        d = p.parent
        while d != root:
            marker = d / "__init__.py"
            if not marker.exists():
                marker.write_text("", encoding="utf-8")
            d = d.parent
    return root


def _rules(findings):
    return {f.rule for f in findings}


# ---------------------------------------------------------------- PET101

class TestPET101:
    def test_ambient_rng_in_sim_scope_fires(self, tmp_path):
        _tree(tmp_path, {"repro/netsim/sim.py": """
            import numpy as np

            def ambient_step():
                rng = np.random.default_rng()
                return rng.random()

            def seeded_step():
                rng = np.random.default_rng(0)
                return rng.random()
        """})
        found = analyze_paths([str(tmp_path)], select={"PET101"})
        assert len(found) == 1
        assert found[0].rule == "PET101"
        assert found[0].symbol.endswith("ambient_step")

    def test_seeding_derived_rng_is_clean(self, tmp_path):
        _tree(tmp_path, {"repro/netsim/sim.py": """
            from repro.parallel.seeding import derive_rng, fallback_rng

            def step(seed):
                rng = derive_rng(seed, 3)
                backup = fallback_rng(0)
                return rng.random() + backup.random()
        """})
        assert analyze_paths([str(tmp_path)], select={"PET101"}) == []

    def test_interprocedural_ambient_flow(self, tmp_path):
        # Ambient construction happens OUTSIDE sim scope (tools/), so
        # only the dataflow edge into the netsim callee can catch it.
        _tree(tmp_path, {
            "repro/tools/driver.py": """
                import numpy as np
                from repro.netsim.sim import consume

                def drive():
                    rng = np.random.default_rng()
                    return consume(rng)
            """,
            "repro/netsim/sim.py": """
                def consume(rng):
                    return rng.random()
            """,
        })
        found = analyze_paths([str(tmp_path)], select={"PET101"})
        assert len(found) == 1
        assert "consume" in found[0].message
        assert found[0].path.endswith("driver.py")

    def test_noqa_suppresses(self, tmp_path):
        _tree(tmp_path, {"repro/netsim/sim.py": """
            import numpy as np

            def ambient_step():
                rng = np.random.default_rng()  # pet: noqa-PET101
                return rng.random()
        """})
        assert analyze_paths([str(tmp_path)], select={"PET101"}) == []


# ---------------------------------------------------------------- PET102

class TestPET102:
    def test_lambda_and_nested_submissions_fire(self, tmp_path):
        _tree(tmp_path, {"repro/analysis/jobs.py": """
            from repro.parallel.engine import Engine, TaskSpec

            def submit_lambda():
                return TaskSpec(0, lambda: 1, (), {}, 0)

            def submit_nested():
                def inner():
                    return 1
                return TaskSpec(1, inner, (), {}, 0)
        """})
        found = analyze_paths([str(tmp_path)], select={"PET102"})
        msgs = " / ".join(f.message for f in found)
        assert len(found) == 2
        assert "lambda" in msgs and "nested" in msgs

    def test_mutable_global_capture_fires(self, tmp_path):
        _tree(tmp_path, {"repro/analysis/jobs.py": """
            from repro.parallel.engine import TaskSpec

            CACHE = {}

            def work(x):
                CACHE[x] = x
                return x

            def pure(x):
                return x + 1

            def submit():
                return [TaskSpec(0, work, (1,), {}, 0),
                        TaskSpec(1, pure, (2,), {}, 0)]
        """})
        found = analyze_paths([str(tmp_path)], select={"PET102"})
        assert len(found) == 1
        assert "CACHE" in found[0].message
        assert found[0].symbol.endswith("work")

    def test_top_level_callable_is_clean(self, tmp_path):
        _tree(tmp_path, {"repro/analysis/jobs.py": """
            from repro.parallel.engine import TaskSpec

            def work(x):
                return x + 1

            def submit():
                return TaskSpec(0, work, (1,), {}, 0)
        """})
        assert analyze_paths([str(tmp_path)], select={"PET102"}) == []


# ---------------------------------------------------------------- PET104

class TestPET104:
    def test_unsorted_iteration_on_export_path_fires(self, tmp_path):
        _tree(tmp_path, {"repro/obs/agg.py": """
            class StatRegistry:
                def __init__(self):
                    self.counters = {}

                def snapshot(self):
                    direct = [(k, v) for k, v in self.counters.items()]
                    return direct + _pack(self.counters)

            def _pack(d):
                return [(k, v) for k, v in d.items()]
        """})
        found = analyze_paths([str(tmp_path)], select={"PET104"})
        assert len(found) == 2
        assert {f.symbol.rsplit(".", 1)[-1] for f in found} == \
            {"snapshot", "_pack"}

    def test_sorted_iteration_is_clean(self, tmp_path):
        _tree(tmp_path, {"repro/obs/agg.py": """
            class StatRegistry:
                def __init__(self):
                    self.counters = {}

                def snapshot(self):
                    flat = [(k, v) for k, v in sorted(self.counters.items())]
                    keys = tuple(sorted(k for k in self.counters.keys()))
                    return flat, keys
        """})
        assert analyze_paths([str(tmp_path)], select={"PET104"}) == []

    def test_unreachable_function_not_flagged(self, tmp_path):
        # Same unsorted iteration, but nothing on a merge/export path.
        _tree(tmp_path, {"repro/obs/agg.py": """
            def unrelated(d):
                return [(k, v) for k, v in d.items()]
        """})
        assert analyze_paths([str(tmp_path)], select={"PET104"}) == []


# ---------------------------------------------------------------- PET105

class TestPET105:
    def test_eager_unguarded_telemetry_fires(self, tmp_path):
        _tree(tmp_path, {"repro/resilience/emit.py": """
            from repro.obs.trace import get_tracer

            def unguarded(kind, detail):
                get_tracer().event(f"ev.{kind}",
                                   data=[repr(v) for v in detail])

            def guarded(kind, detail):
                tracer = get_tracer()
                if tracer:
                    tracer.event(f"ev.{kind}",
                                 data=[repr(v) for v in detail])

            def cheap(kind):
                get_tracer().event("ev", n=len(kind))
        """})
        found = analyze_paths([str(tmp_path)], select={"PET105"})
        assert len(found) == 1
        assert found[0].symbol.endswith("unguarded")


# ------------------------------------------------------------- reporting

class TestReporting:
    def _findings(self, tmp_path):
        _tree(tmp_path, {"repro/netsim/sim.py": """
            import numpy as np

            def ambient_step():
                return np.random.default_rng().random()
        """})
        return analyze_paths([str(tmp_path)], select={"PET101"})

    def test_sarif_document_shape(self, tmp_path):
        doc = to_sarif(self._findings(tmp_path), dict(RULES))
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        run = doc["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert set(RULES) <= set(rule_ids)
        res = run["results"][0]
        assert res["ruleId"] == "PET101"
        assert res["locations"][0]["physicalLocation"]["region"]["startLine"]
        assert res["partialFingerprints"]["petFingerprint/v1"]

    def test_baseline_round_trip(self, tmp_path):
        found = self._findings(tmp_path)
        bl_path = tmp_path / "baseline.json"
        assert save_baseline(str(bl_path), found) == len(found) == 1
        baseline = load_baseline(str(bl_path))
        new, suppressed, stale = split_by_baseline(found, baseline)
        assert (new, len(suppressed), stale) == ([], 1, [])
        # A different finding is new; the old entry goes stale.
        other = found[0].__class__(**{**found[0].__dict__,
                                      "message": "something else"})
        new, suppressed, stale = split_by_baseline([other], baseline)
        assert len(new) == 1 and not suppressed and len(stale) == 1

    def test_fingerprint_survives_line_churn(self, tmp_path):
        f = self._findings(tmp_path)[0]
        moved = f.__class__(**{**f.__dict__, "line": f.line + 40})
        assert f.fingerprint() == moved.fingerprint()

    def test_build_program_models_modules(self, tmp_path):
        _tree(tmp_path, {"repro/netsim/sim.py": """
            class Net:
                def step(self):
                    return helper()

            def helper():
                return 1
        """})
        program = build_program([str(tmp_path)])
        assert "repro.netsim.sim.Net.step" in program.functions
        assert "repro.netsim.sim.helper" in program.functions
        reach = program.reachable_from({"repro.netsim.sim.Net.step"})
        assert "repro.netsim.sim.helper" in reach


# ------------------------------------------------------------------ CLI

class TestCLI:
    def _clean_tree(self, tmp_path):
        return _tree(tmp_path, {"repro/netsim/sim.py": """
            def step(x):
                return x + 1
        """})

    def _dirty_tree(self, tmp_path):
        return _tree(tmp_path, {"repro/netsim/sim.py": """
            import numpy as np

            def ambient_step():
                return np.random.default_rng().random()
        """})

    def test_exit_zero_on_clean(self, tmp_path, capsys):
        root = self._clean_tree(tmp_path)
        assert devtools_main([str(root), "--no-baseline"]) == 0

    def test_exit_one_on_findings(self, tmp_path, capsys):
        root = self._dirty_tree(tmp_path)
        assert devtools_main([str(root), "--no-baseline"]) == 1
        assert "PET101" in capsys.readouterr().out

    def test_exit_two_on_unknown_rule_and_missing_path(self, tmp_path):
        root = self._clean_tree(tmp_path)
        assert devtools_main([str(root), "--select",
                              "PET999"]) == 2
        assert devtools_main([str(tmp_path / "nope")]) == 2

    def test_exit_two_on_parse_error(self, tmp_path):
        bad = tmp_path / "repro" / "broken.py"
        bad.parent.mkdir(parents=True)
        (bad.parent / "__init__.py").write_text("")
        bad.write_text("def broken(:\n")
        assert devtools_main([str(tmp_path),
                              "--no-baseline"]) == 2

    def test_baseline_gate_blocks_only_new(self, tmp_path, capsys):
        root = self._dirty_tree(tmp_path)
        bl = tmp_path / "bl.json"
        assert devtools_main([str(root), "--baseline", str(bl),
                              "--write-baseline"]) == 0
        assert devtools_main([str(root), "--baseline",
                              str(bl)]) == 0
        (root / "repro" / "netsim" / "more.py").write_text(textwrap.dedent("""
            import numpy as np

            def another_ambient():
                return np.random.default_rng().random()
        """))
        capsys.readouterr()
        assert devtools_main([str(root), "--baseline",
                              str(bl)]) == 1
        out = capsys.readouterr().out
        assert "more.py" in out and "sim.py" not in out

    def test_json_and_sarif_formats(self, tmp_path, capsys):
        root = self._dirty_tree(tmp_path)
        # the ambient default_rng() also trips PET002; count only PET101
        assert devtools_main([str(root), "--no-baseline", "--select",
                              "PET101", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.analyze/v1"
        assert doc["count"] == 1
        out_file = tmp_path / "report.sarif"
        assert devtools_main([str(root), "--no-baseline", "--select",
                              "PET101", "--format", "sarif", "--out",
                              str(out_file)]) == 1
        capsys.readouterr()
        on_disk = json.loads(out_file.read_text())
        assert on_disk["version"] == "2.1.0"
        assert on_disk["runs"][0]["results"][0]["ruleId"] == "PET101"

    def test_one_rule_catalogue(self, capsys):
        ids = {"PET001", "PET002", "PET003", "PET004", "PET005", "PET006",
               "PET007", "PET101", "PET102", "PET104", "PET105"}
        sarif = to_sarif([], RULES)["runs"][0]["tool"]["driver"]["rules"]
        assert set(RULES) == set(_REGISTRY) == {r["id"] for r in sarif} == ids
        assert devtools_main(["--list-rules"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert {line.split()[0] for line in listed} == ids
        assert devtools_main(["--select", "PET999"]) == 2

    def test_list_rules_both_subcommands(self, capsys):
        # `repro devtools` and `python -m repro.devtools` list the same
        # catalogue: per-module and interprocedural rules together.
        from repro.cli import main as repro_main
        assert repro_main(["devtools", "--list-rules"]) == 0
        via_repro = capsys.readouterr().out
        assert devtools_main(["--list-rules"]) == 0
        assert capsys.readouterr().out == via_repro
        assert "PET001" in via_repro and "PET101" in via_repro

    def test_lint_shares_front_door_and_formats(self, tmp_path, capsys):
        root = _tree(tmp_path, {"repro/netsim/sim.py": """
            import time

            def step():
                return time.time()
        """})
        assert devtools_main([str(root), "--no-baseline",
                              "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.analyze/v1"
        assert doc["findings"][0]["rule"].startswith("PET0")

    def test_module_entry_point_subprocess(self):
        """The real front door: repo tree vs the committed baseline."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools", "src",
             "--baseline", str(REPO / "ANALYZE_BASELINE.json")],
            cwd=str(REPO), capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_gate_verdict_is_independent_of_cwd(self, monkeypatch, capsys):
        """Fingerprints hash the package-rooted path, so the committed
        baseline matches from the repo root and from ``src/`` alike."""
        for cwd, args in ((REPO, ["src", "--baseline",
                                  "ANALYZE_BASELINE.json"]),
                          (REPO / "src", ["repro", "--baseline",
                                          "../ANALYZE_BASELINE.json"])):
            monkeypatch.chdir(cwd)
            assert devtools_main(args) == 0
            err = capsys.readouterr().err
            assert "(4 baselined finding(s) suppressed)" in err
            assert "stale" not in err
