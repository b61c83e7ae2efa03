"""Paper Fig. 8 — per-packet latency statistics, Web Search workload.

Expected shape (§5.5.6): PET achieves the lowest latency at every load;
SECN2's deep thresholds give the highest (paper: PET is up to 3% / 7.2%
/ 18.3% lower than ACC / SECN1 / SECN2).  Latency here is the queueing
delay along packet paths sampled by the simulator.
"""

import numpy as np

from paperbench import ALL_SCHEMES, LOADS, print_banner, run_jobs, \
    standard_scenario
from repro.analysis.report import format_table


def _collect():
    return run_jobs({(scheme, load): (scheme, standard_scenario("websearch",
                                                                load))
                     for load in LOADS for scheme in ALL_SCHEMES})


def test_fig8_latency(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    print_banner("Fig. 8 — per-packet latency (us), Web Search workload")
    rows = []
    for scheme in ALL_SCHEMES:
        rows.append([scheme,
                     *[round(results[(scheme, l)].latency["avg"] * 1e6, 1)
                       for l in LOADS],
                     *[round(results[(scheme, l)].latency["p99"] * 1e6, 1)
                       for l in LOADS]])
    print(format_table(["scheme",
                        *[f"avg@{l:.0%}" for l in LOADS],
                        *[f"p99@{l:.0%}" for l in LOADS]], rows))

    def mean_latency(scheme):
        return float(np.mean([results[(scheme, l)].latency["avg"]
                              for l in LOADS]))

    lat = {s: mean_latency(s) for s in ALL_SCHEMES}
    print("\nload-mean avg latency (us):",
          {k: round(v * 1e6, 1) for k, v in lat.items()})
    # PET lowest; SECN2 (deep static thresholds) the worst.
    assert lat["pet"] <= lat["acc"] * 1.05
    assert lat["pet"] < lat["secn1"]
    assert lat["pet"] < lat["secn2"]
    assert lat["secn2"] == max(lat.values())
