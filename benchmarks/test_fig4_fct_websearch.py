"""Paper Fig. 4 — FCT statistics with the Web Search workload.

Four panels over the network-load sweep, all schemes:
(a) overall average normalized FCT, (b) mice (0,100KB] average,
(c) mice 99th percentile, (d) elephant [10MB,inf) average.

Expected shape (paper §5.5.1): PET achieves the lowest normalized FCT
in all panels, the static HPCC setting (SECN2, deep thresholds) is the
worst for mice, and the learning schemes beat the statics at moderate
and high load.
"""

import numpy as np

from paperbench import ALL_SCHEMES, LOADS, print_banner, run_jobs, \
    standard_scenario
from repro.analysis.report import format_table


def _collect():
    return run_jobs({(scheme, load): (scheme, standard_scenario("websearch",
                                                                load))
                     for load in LOADS for scheme in ALL_SCHEMES})


def test_fig4_fct_websearch(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    panels = [
        ("(a) overall average FCT", lambda r: r.fct["overall"].avg),
        ("(b) mice (0,100KB] average FCT", lambda r: r.fct["mice"].avg),
        ("(c) mice (0,100KB] 99th FCT", lambda r: r.fct["mice"].p99),
        ("(d) elephant average FCT", lambda r: r.fct["elephant"].avg),
    ]
    print_banner("Fig. 4 — normalized FCT, Web Search workload")
    for title, metric in panels:
        rows = []
        for scheme in ALL_SCHEMES:
            rows.append([scheme, *[round(metric(results[(scheme, l)]), 2)
                                   for l in LOADS]])
        print(f"\n{title}")
        print(format_table(["scheme", *[f"load {l:.0%}" for l in LOADS]],
                           rows))

    # ---- shape assertions (ordering, not absolute numbers) --------------
    # PET beats both static schemes on overall avg FCT averaged over loads.
    def mean_over_loads(scheme, metric):
        return float(np.mean([metric(results[(scheme, l)]) for l in LOADS]))

    overall = {s: mean_over_loads(s, lambda r: r.fct["overall"].avg)
               for s in ALL_SCHEMES}
    print("\nmean overall FCT across loads:", {k: round(v, 2)
                                               for k, v in overall.items()})
    assert overall["pet"] < overall["secn1"]
    assert overall["pet"] < overall["secn2"]
    # PET is at least competitive with ACC (paper: up to 3.9% better).
    assert overall["pet"] <= overall["acc"] * 1.05
    # deep static thresholds (SECN2) hurt mice latency the most
    mice = {s: mean_over_loads(s, lambda r: r.fct["mice"].avg)
            for s in ALL_SCHEMES}
    assert mice["pet"] < mice["secn2"]
    # elephants must not be starved by PET's shorter queues: within 10%
    # of the best scheme's elephant FCT (paper: PET *improves* elephants).
    eleph = {s: mean_over_loads(s, lambda r: r.fct["elephant"].avg)
             for s in ALL_SCHEMES}
    assert eleph["pet"] <= min(eleph.values()) * 1.10
