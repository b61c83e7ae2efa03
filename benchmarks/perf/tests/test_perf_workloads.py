"""The workloads at smoke size: transparent proxies, counted failures."""

import pytest

import run
import workloads as W
from spec import load_spec
from tracing import Tracer

SMOKE_SECONDS = load_spec()["run_seconds"] / 20.0


def _run(name, tracer=None):
    wl = W.WORKLOADS[name](0, SMOKE_SECONDS, tracer)
    try:
        wl.setup()
        wl.run()
        return wl, wl.results()
    finally:
        wl.close()


@pytest.mark.parametrize("name", ["train_fleet32", "serve_fleet32"])
def test_proxies_are_transparent_and_account_for_the_wall(name):
    plain, plain_sim = _run(name)
    tracer = Tracer()
    trainers = W.install_layer_proxies(tracer)
    try:
        traced, traced_sim = _run(name, tracer)
    finally:
        tracer.unpatch()
    assert plain.failed == traced.failed == 0
    assert traced_sim["sim_fingerprint"] == plain_sim["sim_fingerprint"]

    layer = W.per_layer_metrics(traced, traced_sim, tracer, trainers,
                                calib_ms=1.0, strict=False)
    assert set(layer) == {m["name"] for m in load_spec()["per_layer"]}
    assert layer["bench.trace_coverage"] >= run.MIN_TRACE_COVERAGE
    wall = sum(hi - lo for lo, hi in traced.phases.values())
    assert layer["bench.unaccounted_s"] == pytest.approx(
        wall * (1.0 - layer["bench.trace_coverage"]))
    # a decide is its own time plus the trainer calls inside it
    ticks = [traced.phases["ticks"]]
    decide = sum(tracer.durations("core.decide", ticks))
    inside = (sum(tracer.self_durations("core.decide", ticks))
              + sum(tracer.durations("rl.act", ticks))
              + sum(tracer.durations("rl.update", ticks)))
    assert inside == pytest.approx(decide)
    assert layer["rl.stacked_share"] == 1.0
    shares = (layer["netsim.advance_share"] + layer["netsim.queue_stats_share"]
              + layer["core.decide_share"] + layer["serve.tick_self_share"])
    assert 0.9 <= shares <= 1.0


def test_a_raising_tick_is_a_counted_failure(monkeypatch, capsys, tmp_path):
    calls = {"n": 0}
    decide = W.PETController.decide

    def flaky(self, stats, now, network):
        calls["n"] += 1
        if calls["n"] % 40 == 0:
            raise RuntimeError("injected")
        return decide(self, stats, now, network)
    monkeypatch.setattr(W.PETController, "decide", flaky)
    code = run.main(["--workload", "train_fleet32", "--smoke",
                     "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1 and "injected" in err
    import json
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert 0 < last["failed"] < last["attempted"]
    assert "fail_share = failed/attempted = " in out
    assert 0 < last["metrics"]["ok_share"]["value"] < 1
