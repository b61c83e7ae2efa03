"""Paper Fig. 6 — model convergence under abrupt traffic-pattern switches.

The paper starts with Web Search background traffic, switches to Data
Mining at 4.1s, back to Web Search at 8.1s and again to Data Mining at
9.1s, and watches how quickly each learning scheme re-converges (FCT of
mice and elephant flows per phase).  Our timeline is scaled (the fluid
runs 0.24s, switches at 0.098/0.194/0.218s) but the schedule *shape* is
the paper's.  The schedule is the scenario's ``phases``; the per-phase
FCTs are its result's ``windows`` in the paper's mice (0,100KB] and
elephant [10MB,inf) buckets.

Expected shape (§5.5.4): both learning schemes keep working across the
switches (adaptation), with PET's post-switch FCT at or below ACC's
(paper: 2.1% / 7.2% lower for elephants / mice in the best case).
"""

import numpy as np

from paperbench import print_banner, run_jobs, standard_scenario
from repro.analysis.convergence import recovery_time
from repro.analysis.report import format_table
from repro.traffic.patterns import PatternSchedule

SCALE = 0.024     # paper timeline 10s -> 0.24s
LOAD = 0.6
SCHEDULE = PatternSchedule.paper_fig6(load=LOAD, scale=SCALE)


def _summarise(result):
    """Per-phase normalized FCT and the queue's recovery after the first
    abrupt pattern change."""
    segments = [{"workload": name.split(":")[1], "mice": w["mice"].avg,
                 "elephant": w["elephant"].avg, "n": w["overall"].count}
                for name, w in result.windows.items()]
    # convergence-rate metric: intervals for the mean queue to return to
    # its pre-switch level after the first abrupt pattern change
    cfg = result.scenario
    intervals = int(round(cfg.duration / cfg.delta_t))
    qlen = np.reshape(result.queue_samples, (intervals, -1)).mean(axis=1)
    switch_idx = int(SCHEDULE.switch_times()[0] / cfg.delta_t)
    rec = recovery_time(qlen, switch_idx, band=0.25, window=10,
                        baseline_window=40)
    return result, segments, rec


def _collect():
    cfg = standard_scenario("websearch", LOAD,
                            duration=SCHEDULE.total_duration(), incast=False,
                            phases=tuple(SCHEDULE.segments))
    results = run_jobs({s: (s, cfg) for s in ("pet", "acc")})
    return {s: _summarise(r) for s, r in results.items()}


def test_fig6_convergence(benchmark):
    out = benchmark.pedantic(_collect, rounds=1, iterations=1)

    print_banner("Fig. 6 — FCT per phase across abrupt traffic switches")
    headers = ["scheme"]
    for i, seg in enumerate(out["pet"][1]):
        headers.append(f"{i}:{seg['workload'][:2]} mice")
        headers.append(f"{i}:{seg['workload'][:2]} eleph")
    headers.append("recovery (intervals)")
    rows = []
    for scheme, (_, segments, rec) in out.items():
        row = [scheme]
        for seg in segments:
            row.extend([round(seg["mice"], 2), round(seg["elephant"], 2)])
        row.append(rec if rec is not None else "-")
        rows.append(row)
    print(format_table(headers, rows))

    pet_segs, acc_segs = out["pet"][1], out["acc"][1]
    # every phase produced traffic and completions for both schemes
    assert all(s["n"] > 0 for s in pet_segs)
    # adaptation: PET's mice FCT after the first abrupt switch stays
    # within 2x of its steady-state first phase (no collapse) ...
    assert pet_segs[1]["mice"] < pet_segs[0]["mice"] * 2.0
    # ... and PET remains at or below ACC on the phase-mean mice FCT
    pet_mean = np.nanmean([s["mice"] for s in pet_segs])
    acc_mean = np.nanmean([s["mice"] for s in acc_segs])
    print(f"\nphase-mean mice FCT: pet={pet_mean:.2f} acc={acc_mean:.2f}")
    assert pet_mean <= acc_mean * 1.10
