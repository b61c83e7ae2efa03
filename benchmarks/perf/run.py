"""The repository's performance benchmark (see README.md beside this file).

One repetition, the form BENCHMARK.json records and the driver calls::

    python3 benchmarks/perf/run.py --workload train_fleet32 --seed 0 \\
        --seconds 15 --trace 0

prints the metrics by name and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload`` the same file runs the whole benchmark (every workload in
interleaved rounds, each repetition in a fresh child process, plus one
traced round), and ``--compare A.json B.json`` sets two such results
side by side.
"""

from __future__ import annotations

import time

_T_PROCESS = time.perf_counter()        # set-up time counts from here

import argparse                          # noqa: E402
import json                              # noqa: E402
import os                                # noqa: E402
import resource                          # noqa: E402
import statistics                        # noqa: E402
import subprocess                        # noqa: E402
import sys                               # noqa: E402
from typing import Any, Dict, List, Optional, Tuple   # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from report import compare, print_http, run_all   # noqa: E402
from spec import (HERE, ROOT, end_to_end, load_spec,  # noqa: E402
                  workload_names)
from stats import calibrate              # noqa: E402
from tracing import Tracer               # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))

#: ``setup_s`` is the median of this many set-ups, each in an interpreter
#: of its own: the driver's contract asks for several set-ups per run and
#: their median, because one sub-second sample is the noisiest number here.
SETUP_SAMPLES = 3
#: a traced run whose top-level spans cover less of the wall is not valid.
MIN_TRACE_COVERAGE = 0.90


def set_up(name: str, seed: int, seconds: float,
           tracer: Optional[Tracer] = None) -> Tuple[Any, float]:
    """``(workload, setup_s)``: the workload ready for its first timed
    tick, and the seconds from the start of this process until it was."""
    import workloads as W
    wl = W.WORKLOADS[name](seed, seconds, tracer)
    try:
        wl.setup()
    except BaseException:
        wl.close()
        raise
    return wl, time.perf_counter() - _T_PROCESS


def setup_s_of_a_fresh_process(name: str, seed: int, seconds: float) -> float:
    """One more sample of ``setup_s`` from an interpreter that does nothing
    else, so this process's ``peak_rss_mb`` stays that of a single run."""
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import run; "
            f"wl, setup_s = run.set_up({name!r}, {seed!r}, {seconds!r}); "
            "wl.close(); print(setup_s)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return float(out.splitlines()[-1])


def run_repetition(name: str, *, seed: int, seconds: float, trace: bool,
                   smoke: bool, out_dir: str) -> Dict[str, Any]:
    """Set up and run one workload once in this process."""
    import workloads as W
    tracer = Tracer() if trace else None
    trainers = W.install_layer_proxies(tracer) if tracer else []
    wl = None
    try:
        wl, setup_s = set_up(name, seed, seconds, tracer)
        calib = [calibrate()]
        wl.run()
        calib.append(calibrate())
        sim = wl.results()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if wl is not None:
            wl.close()
        if tracer:
            tracer.unpatch()
    setups = [setup_s]
    if not (trace or smoke):             # only untraced full runs report it
        setups += [setup_s_of_a_fresh_process(name, seed, seconds)
                   for _ in range(SETUP_SAMPLES - 1)]

    rep: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "tick_ms": wl.tick_ms, "calib_ms": calib, "setup_samples_s": setups,
        "sim_fingerprint": sim["sim_fingerprint"],
        "http_ms": sim.get("http_ms"),
        #: simulated, seed-deterministic values: two commits compare exactly
        "sim": {k: v for k, v in sim.items()
                if k not in ("sim_fingerprint", "http_ms", "timings")},
        "per_layer": None,
    }
    if tracer:
        rep["per_layer"] = layer = W.per_layer_metrics(
            wl, sim, tracer, trainers, calib_ms=statistics.mean(calib),
            strict=not smoke)
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_jsonl(os.path.join(out_dir, f"spans-{name}.jsonl"),
                           {"workload": name, "seed": seed,
                            "seconds": seconds, "phases": wl.phases})
        wl.attempted += 1
        if layer["bench.trace_coverage"] < MIN_TRACE_COVERAGE:
            wl.fail("trace", "top-level spans cover "
                              f"{layer['bench.trace_coverage']:.3f} of the wall")
    rep["end_to_end"] = W.end_to_end_metrics(
        wl, sim, setup_s=statistics.median(setups), peak_rss_mb=peak_rss_mb,
        strict=not smoke)
    rep.update(attempted=wl.attempted, failed=wl.failed,
               failures=wl.failures)
    return rep


def print_repetition(rep: Dict[str, Any], spec: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the driver's JSON line."""
    print(f"{rep['workload']}  seed={rep['seed']} seconds={rep['seconds']:g} "
          f"trace={int(rep['trace'])}  closed loop, one client, "
          f"cpu_count={os.cpu_count()}")
    if rep["trace"]:
        emitted = printed = spec["per_layer"]
        values = rep["per_layer"]
    else:
        emitted, printed = spec["end_to_end"], end_to_end(spec)
        values = rep["end_to_end"]
    for m in printed:
        note = ""
        if m["name"] in ("tick_p50_ms", "tick_p95_ms", "serve.tick_p99_ms"):
            note = f"   (n={len(rep['tick_ms'])} ticks)"
        elif m["name"] == "setup_s":
            note = f"   (median of {len(rep['setup_samples_s'])} processes)"
        elif m["name"] == "ok_share":
            fail_share = rep["failed"] / rep["attempted"]
            note = (f"   (fail_share = failed/attempted = {rep['failed']}/"
                    f"{rep['attempted']} = {fail_share:g})")
        print(f"  {m['name']:<34} {values[m['name']]:>16.6g} {m['unit']}{note}")
    print_http(rep["http_ms"])
    print(f"  sim_fingerprint {rep['sim_fingerprint']}")
    print(f"  sim {json.dumps(rep['sim'], sort_keys=True)}")
    print(f"  calib_ms before/after {rep['calib_ms'][0]:.3f}/"
          f"{rep['calib_ms'][1]:.3f}")
    for line in rep["failures"]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": rep["failed"] == 0, "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in emitted}}))


def build_parser(spec: Dict[str, Any]) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workload_names(spec),
                   help="run one repetition of this workload in-process")
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--seconds", type=float, default=None,
                   help="nominal measured seconds; fixes every size "
                        "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: wrap the layers in timing proxies and print "
                        "the per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="1/20 size, one round, tails printed without the "
                        "ten-samples-beyond rule, no bounds")
    p.add_argument("--out", default=os.path.join(HERE, "out"),
                   help="directory for span files and the result")
    p.add_argument("--detail", help="also write this repetition as JSON")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                   help="compare two results of the whole benchmark")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    args = build_parser(spec).parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec=spec)
    seconds = args.seconds
    if seconds is None:
        seconds = spec["run_seconds"] / (20.0 if args.smoke else 1.0)
    if args.workload is None:
        return run_all(spec, seed=args.seed, seconds=seconds,
                       smoke=args.smoke, out_dir=args.out)
    rep = run_repetition(args.workload, seed=args.seed, seconds=seconds,
                         trace=bool(args.trace), smoke=args.smoke,
                         out_dir=args.out)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as fh:
            json.dump(rep, fh)
    print_repetition(rep, spec)
    return 0 if rep["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
