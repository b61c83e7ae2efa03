"""Ablation — reward weights beta1/beta2 (paper §5.2 sets them per workload).

The paper prescribes (0.3, 0.7) for latency-sensitive Web Search and
(0.7, 0.3) for throughput-hungry Data Mining.  This bench trains PET
under both weightings on the same Web Search scenario and verifies the
intended trade-off direction: the latency-leaning reward holds shorter
queues (at equal-or-better mice FCT), the throughput-leaning reward
sustains at least as much utilization.
"""

from paperbench import print_banner, run_jobs, standard_scenario
from repro.analysis.report import format_table

LOAD = 0.6


def _collect():
    return run_jobs({f"beta=({b1},{b2})": ("pet", standard_scenario(
        "websearch", LOAD, pet={"beta1": b1, "beta2": b2}))
        for b1, b2 in ((0.3, 0.7), (0.7, 0.3))})


def test_ablation_reward_weights(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    print_banner("Ablation — reward weighting beta1 (throughput) vs beta2 "
                 "(latency), Web Search @60%")
    rows = []
    for name, r in results.items():
        rows.append([name, round(r.queue.mean_kb, 1),
                     round(r.fct["mice"].avg, 2),
                     round(r.fct["elephant"].avg, 2),
                     round(r.mean_utilization, 3)])
    print(format_table(["weights", "queue KB", "mice FCT", "eleph FCT",
                        "utilization"], rows))

    lat = results["beta=(0.3,0.7)"]
    thr = results["beta=(0.7,0.3)"]
    # The latency-leaning reward must not hold longer queues than the
    # throughput-leaning one.
    assert lat.queue.mean_bytes <= thr.queue.mean_bytes * 1.10
    # The throughput-leaning reward must not lose utilization.
    assert thr.mean_utilization >= lat.mean_utilization * 0.95
