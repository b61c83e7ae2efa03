"""Ablation — learning algorithm and its system overhead (paper Goal 3).

PET's systems argument against ACC is not only FCT: ACC's multi-agent
DDQN requires a *global experience replay*, so every switch ships every
transition to its peers and keeps the shared pool resident.  PET's IPPO
learns from purely local rollouts — zero experience exchanged.

This bench runs both learners on the identical scenario and reports
(a) performance and (b) the metered replay overhead: bytes exchanged
between switches and resident replay memory (exactly the costs §3.3
Goal 3 targets).  PET's exchanged bytes are zero by construction.
"""

from paperbench import print_banner, run_jobs, standard_scenario
from repro.analysis.report import format_table

LOAD = 0.6


def _collect():
    cfg = standard_scenario("websearch", LOAD)
    return run_jobs({s: (s, cfg) for s in ("pet", "acc")})


def test_ablation_ippo_vs_ddqn_overhead(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    pet, acc = results["pet"], results["acc"]
    print_banner("Ablation — IPPO (PET) vs DDQN+global replay (ACC)")
    rows = [
        ["pet", round(pet.fct["overall"].avg, 2),
         round(pet.queue.mean_kb, 1), 0, 0],
        ["acc", round(acc.fct["overall"].avg, 2),
         round(acc.queue.mean_kb, 1),
         int(acc.extra["bytes_exchanged_total"]),
         int(acc.extra["replay_resident_bytes"])],
    ]
    print(format_table(["scheme", "overall FCT", "queue KB",
                        "bytes exchanged", "replay resident B"], rows))

    # ACC pays a real, nonzero exchange cost; PET structurally pays none.
    assert acc.extra["bytes_exchanged_total"] > 0
    assert acc.extra["replay_resident_bytes"] > 0
    assert "bytes_exchanged_total" not in pet.extra
    # At matched training budgets IPPO is at least competitive.
    assert pet.fct["overall"].avg <= acc.fct["overall"].avg * 1.08
