"""Ablation — compact vs full (paper-exact) action space.

The paper enumerates every ``(Kmin < Kmax, Pmax)`` combination on the
``alpha * 2^n`` grid (|A| = 900 at the §5.2 settings); this repo's
benchmarks default to a compact 40-action space that ties Kmin to
Kmax/4 (DESIGN.md substitution).  This bench trains both on the same
scenario and budget.  Expected: the compact space converges at least as
well within the budget — the justification for the substitution — while
the full space remains functional (it runs, completes traffic, and is
not catastrophically worse).
"""

from paperbench import print_banner, run_jobs, standard_scenario
from repro.analysis.report import format_table

LOAD = 0.6


def _collect():
    return run_jobs({
        f"{mode}({n})": ("pet", standard_scenario(
            "websearch", LOAD, pet={"action_mode": mode}))
        for mode, n in (("compact", 40), ("full", 900))})


def test_ablation_action_space(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    print_banner("Ablation — compact vs full (paper-exact) action space, "
                 "Web Search @60%")
    rows = []
    for name, r in results.items():
        rows.append([name, round(r.fct["overall"].avg, 2),
                     round(r.fct["mice"].avg, 2),
                     round(r.queue.mean_kb, 1), r.flows_finished])
    print(format_table(["action space", "overall FCT", "mice FCT",
                        "queue KB", "finished"], rows))

    compact = results["compact(40)"]
    full = results["full(900)"]
    assert compact.flows_finished > 0 and full.flows_finished > 0
    # the substitution must not cost performance at this budget
    assert compact.fct["overall"].avg <= full.fct["overall"].avg * 1.05
    # and the full space must still be a working configuration
    assert full.fct["overall"].avg < 50
