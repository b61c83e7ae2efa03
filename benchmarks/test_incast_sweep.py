"""Extension bench — FCT vs incast fan-in (the paper's motivation, §3.2).

The paper motivates incast-awareness with the partition–aggregate
pattern; this sweep varies the fan-in of the many-to-one overlay and
compares PET against the static DCQCN setting.  Expected shape: incast
response FCT grows with fan-in for everyone (the last-hop port is a
hard bottleneck), and PET's shorter queues keep the *background mice*
faster than the static scheme as the incast pressure rises.
"""

import numpy as np

from paperbench import print_banner, run_jobs, standard_scenario
from repro.analysis.report import format_table

FAN_INS = (8, 24)
LOAD = 0.5


def _scenario(fan_in):
    return standard_scenario("websearch", LOAD, incast=True,
                             incast_fan_in=fan_in, incast_period=5e-3,
                             incast_bytes=100_000)


def _collect():
    return run_jobs({(scheme, fan_in): (scheme, _scenario(fan_in))
                     for fan_in in FAN_INS for scheme in ("pet", "secn1")})


def test_incast_fan_in_sweep(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    print_banner("Incast sweep — FCT vs fan-in (Web Search @50% + "
                 "many-to-one overlay)")
    rows = []
    for scheme in ("pet", "secn1"):
        rows.append([scheme,
                     *[round(results[(scheme, f)].fct["mice"].avg, 2)
                       for f in FAN_INS],
                     *[round(results[(scheme, f)].queue.mean_kb, 1)
                       for f in FAN_INS]])
    print(format_table(["scheme", *[f"mice FCT fan{f}" for f in FAN_INS],
                        *[f"queue KB fan{f}" for f in FAN_INS]], rows))

    # deeper incast costs everyone (sanity of the generator + bottleneck)
    for scheme in ("pet", "secn1"):
        lo = results[(scheme, FAN_INS[0])].fct["overall"].avg
        hi = results[(scheme, FAN_INS[-1])].fct["overall"].avg
        assert hi > lo * 0.9, "fan-in had no effect at all"
    # PET keeps queues shorter than the static scheme at every fan-in
    for f in FAN_INS:
        assert results[("pet", f)].queue.mean_bytes < \
            results[("secn1", f)].queue.mean_bytes
    # and mice don't lose out under the heaviest incast
    f = FAN_INS[-1]
    assert results[("pet", f)].fct["mice"].avg <= \
        results[("secn1", f)].fct["mice"].avg * 1.05
