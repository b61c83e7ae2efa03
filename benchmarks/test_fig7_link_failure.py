"""Paper Fig. 7 — robustness to link failures.

The paper disconnects 10% of switch links at 3.1s and restores them at
6.1s; PET reacts faster than ACC, achieving up to 26% lower average FCT
during the failure episode.  We reproduce the same schedule on the
scaled timeline (failure at 1/3 of the run, restore at 2/3) and compare
the normalized FCT of flows finishing inside the failure window.
"""

from paperbench import print_banner, run_jobs, standard_scenario
from repro.analysis.report import format_table

LOAD = 0.6
DURATION = 0.24
#: (fail_at_s, restore_at_s, fraction): 10% of the uplinks fail at 1/3 of
#: the run and come back at 2/3
FAILURE = (0.08, 0.16, 0.10)


def _collect():
    cfg = standard_scenario("websearch", LOAD, duration=DURATION,
                            incast=False, link_failure=FAILURE)
    results = run_jobs({s: (s, cfg) for s in ("pet", "acc", "secn1")})
    return {s: (r, {name: (r.windows[name]["overall"].avg,
                           r.windows[name]["overall"].count)
                    for name in ("before", "during", "after")})
            for s, r in results.items()}


def test_fig7_link_failure(benchmark):
    out = benchmark.pedantic(_collect, rounds=1, iterations=1)

    print_banner("Fig. 7 — normalized FCT around a 10% link-failure episode")
    rows = []
    for scheme, (_, w) in out.items():
        rows.append([scheme, *[round(w[k][0], 2)
                               for k in ("before", "during", "after")],
                     w["during"][1]])
    print(format_table(["scheme", "before", "during", "after",
                        "flows during"], rows))

    pet, acc = out["pet"][1], out["acc"][1]
    # Both schemes keep completing flows through the failure.
    assert pet["during"][1] > 0 and acc["during"][1] > 0
    # Failures degrade FCT relative to the calm phase for everyone...
    assert pet["during"][0] > pet["before"][0] * 0.8
    # ...but PET's in-failure FCT stays at or below ACC's (paper: up to
    # 26% lower; we accept anything up to parity + 10% noise).
    assert pet["during"][0] <= acc["during"][0] * 1.10
    # and PET recovers after restoration (no lasting damage)
    assert pet["after"][0] <= pet["during"][0] * 1.25
