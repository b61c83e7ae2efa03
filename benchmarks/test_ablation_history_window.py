"""Ablation — history window length k (paper Eq. 3).

PET feeds the agent the last k monitored slots "to measure the changes
in the statistics collected over consecutive time slots".  This bench
trains PET with k=1 (no temporal context) and the default k=4 on the
same scenario.  Expected: the windowed agent is at least as good — the
window is what lets the agent see queue *growth*, not just level.
"""

from paperbench import print_banner, run_jobs, standard_scenario
from repro.analysis.report import format_table

LOAD = 0.7


def _collect():
    return run_jobs({f"k={k}": ("pet", standard_scenario(
        "websearch", LOAD, pet={"history_k": k})) for k in (1, 4)})


def test_ablation_history_window(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    print_banner("Ablation — history window k (Eq. 3), Web Search @70%")
    rows = []
    for name, r in results.items():
        rows.append([name, round(r.fct["overall"].avg, 2),
                     round(r.fct["mice"].p99, 2),
                     round(r.queue.mean_kb, 1),
                     round(r.queue.std_kb, 1)])
    print(format_table(["window", "overall FCT", "mice p99", "queue KB",
                        "queue std KB"], rows))

    k1, k4 = results["k=1"], results["k=4"]
    # Temporal context must not hurt; both arms must complete traffic.
    assert k4.fct["overall"].avg <= k1.fct["overall"].avg * 1.08
    assert k1.flows_finished > 0 and k4.flows_finished > 0
