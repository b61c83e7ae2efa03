"""Paper Fig. 9 — validation of the incast and M/E-ratio state features.

Compares full PET against the ablated variant whose incast-degree and
mice/elephant-ratio features are zero-masked (exactly ACC's state
information).  The scenario is incast-heavy — the regime those features
exist for.  Expected shape (§5.5.7): the full state reduces overall FCT
(paper: up to 6.3%); we assert the ablated arm is never meaningfully
better.
"""

import numpy as np

from paperbench import print_banner, run_jobs, standard_scenario
from repro.analysis.report import format_table

LOADS = (0.5, 0.7)


def _scenario(load):
    # amplified many-to-one pattern: 24-way incast every 5 ms
    return standard_scenario("websearch", load, incast=True,
                             incast_fan_in=24, incast_period=5e-3,
                             incast_bytes=100_000)


def _collect():
    return run_jobs({(scheme, load): (scheme, _scenario(load))
                     for load in LOADS for scheme in ("pet", "pet_ablated")})


def test_fig9_state_ablation(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    print_banner("Fig. 9 — PET with vs without incast & M/E-ratio states "
                 "(incast-heavy Web Search)")
    rows = []
    for scheme in ("pet", "pet_ablated"):
        rows.append([scheme,
                     *[round(results[(scheme, l)].fct["overall"].avg, 2)
                       for l in LOADS],
                     *[round(results[(scheme, l)].fct["mice"].p99, 2)
                       for l in LOADS]])
    print(format_table(["scheme", *[f"overall@{l:.0%}" for l in LOADS],
                        *[f"mice p99@{l:.0%}" for l in LOADS]], rows))

    full = float(np.mean([results[("pet", l)].fct["overall"].avg
                          for l in LOADS]))
    ablated = float(np.mean([results[("pet_ablated", l)].fct["overall"].avg
                             for l in LOADS]))
    gain = (ablated - full) / ablated * 100
    print(f"\nfull-state gain over ablated: {gain:.1f}% "
          "(paper reports up to 6.3%)")
    # The category-2 features must not hurt, and both arms must work.
    assert full <= ablated * 1.05
    for key, r in results.items():
        assert r.flows_finished > 0, key
