"""Paper Table I — queue length statistics at 60% load.

The paper reports (Web Search, 60% load):

    |          | PET     | ACC     |
    | average  | 5.3 KB  | 6.1 KB  |
    | variance | 10.2 KB | 14.1 KB |

Expected shape: both learning schemes hold short queues; PET's mean and
spread are at or below ACC's (PET is "more stable").  Our queue samples
are per-switch totals on a scaled fabric, so magnitudes differ from the
paper's per-queue KB; the PET<ACC ordering is what we reproduce.
"""

from paperbench import print_banner, run_jobs, standard_scenario
from repro.analysis.report import format_table


def _collect():
    cfg = standard_scenario("websearch", 0.6)
    return run_jobs({s: (s, cfg) for s in ("pet", "acc", "secn1", "secn2")})


def test_table1_queue_length(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    print_banner("Table I — queue length statistics at 60% load (Web Search)")
    rows = []
    for scheme, r in results.items():
        rows.append([scheme, round(r.queue.mean_kb, 1),
                     round(r.queue.std_kb, 1),
                     round(r.queue.p99_bytes / 1000, 1)])
    print(format_table(["scheme", "avg qlen (KB)", "std (KB)", "p99 (KB)"],
                       rows))
    print("\npaper: PET avg 5.3KB var 10.2KB | ACC avg 6.1KB var 14.1KB "
          "(per queue, 288-host fabric)")

    pet, acc = results["pet"].queue, results["acc"].queue
    # PET holds queues at or below ACC's level (paper: 5.3 vs 6.1 KB) ...
    assert pet.mean_bytes <= acc.mean_bytes * 1.10
    # ... and is the more stable of the two (paper: 10.2 vs 14.1 KB).
    assert pet.std_bytes <= acc.std_bytes * 1.15
    # both learning schemes hold shorter queues than the static settings
    assert pet.mean_bytes < results["secn1"].queue.mean_bytes
    assert pet.mean_bytes < results["secn2"].queue.mean_bytes
