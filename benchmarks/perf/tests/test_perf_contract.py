"""BENCHMARK.json against what the command prints, and --compare."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import report
import run
import workloads
from spec import ROOT, end_to_end, load_spec, workload_names

WORKLOAD_NAMES = workload_names(load_spec())

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_well_formed():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/perf"]
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert [m["name"] for m in end_to_end(spec)] == [
        "ticks_per_s", "tick_p50_ms", "tick_p95_ms", "setup_s", "peak_rss_mb",
        "fct_slowdown", "queue_kb", "ok_share"]
    assert len(spec["end_to_end"]) == 7      # the tail is listed per layer
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(
        workload, trace, capsys, tmp_path):
    spec = load_spec()
    code = run.main(["--workload", workload, "--smoke", "--seed", "3",
                     "--trace", str(trace), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    last = json.loads(out.strip().splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {n: v["unit"] for n, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())
    else:
        assert (tmp_path / f"spans-{workload}.jsonl").stat().st_size > 0
    printed = declared if trace else end_to_end(spec)
    for m in printed:                       # and by name in the readable part
        assert re.search(rf"^\s+{re.escape(m['name'])}\s", out, re.M)
    if not trace:
        assert "fail_share = failed/attempted = 0/" in out


def test_no_result_outside_the_repository(tmp_path):
    """Only BENCHMARK.json and ``paths``: non-zero exit, nothing printed."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "benchmarks", "perf"),
                    tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "fabric_xl",
         "--seed", "0", "--seconds", "15", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ------------------------------------------------------------ --compare
@pytest.mark.parametrize("a, b, better, bound, word", [
    ([10.0, 10.1, 10.2], [10.3, 10.4, 10.2], "lower", 0.10, "ok"),
    ([10.0, 10.1, 10.2], [12.0, 12.1, 12.2], "lower", 0.10, "regressed"),
    ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "higher", 0.10, "regressed"),
    # a spread wider than the bound: unresolved, unless the median is worse
    # by more than the bound or every run of B beats every run of A
    ([10.0, 13.0, 16.0], [11.0, 14.0, 17.0], "lower", 0.10, "unresolved"),
    ([10.0, 13.0, 16.0], [15.0, 19.5, 24.0], "lower", 0.10, "regressed"),
    ([10.0, 13.0, 16.0], [7.0, 8.0, 9.0], "lower", 0.10, "ok"),
    ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], "higher", 0.0005, "ok"),
    ([1.0, 1.0, 1.0], [1.0, 0.999, 0.999], "higher", 0.0005, "regressed"),
])
def test_verdict(a, b, better, bound, word):
    assert report.verdict(a, b, better, bound)["verdict"] == word


def _result(ticks_per_s, fingerprint="f" * 64, flows=10, fail_share=0.0):
    def metric(values, unit="x"):
        return {"unit": unit, "values": values, **report.quartiles(values)}
    metrics = {m["name"]: metric([1.0, 1.0, 1.0])
               for m in end_to_end(load_spec())}
    metrics["ticks_per_s"] = metric(ticks_per_s)
    return {"workloads": {"train_fleet32": {
        "seed": 0, "seconds": 15.0, "end_to_end": metrics,
        "fail_share": fail_share,
        "sim_fingerprint": fingerprint, "sim": {"flows": flows}}}}


def test_compare_says_what_it_found_and_agrees_only_when_all_is_ok(
        tmp_path, capsys):
    spec = load_spec()
    paths = {}
    for key, res in {"base": _result([100.0, 101.0, 102.0]),
                     "same": _result([100.5, 101.5, 99.5]),
                     "slow": _result([50.0, 51.0, 52.0]),
                     "wide": _result([70.0, 100.0, 130.0]),
                     "slow_and_wide": _result([30.0, 50.0, 70.0]),
                     "failing": _result([100.0, 101.0, 102.0],
                                        fail_share=0.001),
                     "other": _result([100.0, 101.0, 102.0], "e" * 64, 11)
                     }.items():
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(res, fh)

    def compared(key):
        code = report.compare(paths["base"], paths[key], spec=spec)
        return code, capsys.readouterr().out

    code, out = compared("same")
    assert code == 0 and out.rstrip().endswith("agree")
    assert not re.search(r"\)\s+(regressed|unresolved)", out)
    code, out = compared("slow")
    assert code == 1 and out.rstrip().endswith("1 regressed")
    assert re.search(r"ticks_per_s .*\)\s+regressed", out)
    code, out = compared("wide")
    assert code == 1 and out.rstrip().endswith("1 unresolved")
    code, out = compared("slow_and_wide")     # a wide spread hides nothing
    assert code == 1 and out.rstrip().endswith("1 regressed")
    code, out = compared("failing")
    assert code == 1 and re.search(r"fail_share .*regressed", out)
    code, out = compared("other")
    assert code == 1 and out.rstrip().endswith("1 different")
    assert "sim_fingerprint DIFFERENT" in out and "sim.flows" in out
