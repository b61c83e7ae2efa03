"""Paper Fig. 3 — traffic distributions (Web Search, Data Mining).

Regenerates the two flow-size CDFs the paper trains and evaluates on,
prints the curve points, and validates their published characteristics.
The benchmarked quantity is the sampling throughput of the generator
(the piece that must keep up with the simulator).
"""

import numpy as np

from paperbench import print_banner
from repro.analysis.report import format_table
from repro.traffic.workloads import DATA_MINING, WEB_SEARCH


def test_fig3_traffic_cdfs(benchmark):
    rng = np.random.default_rng(0)

    def sample_both():
        return (WEB_SEARCH.sample(rng, 10_000),
                DATA_MINING.sample(rng, 10_000))

    ws, dm = benchmark(sample_both)

    print_banner("Fig. 3 — flow-size CDFs (bytes at cumulative probability)")
    qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]
    rows = [["quantile", *qs],
            ["websearch", *[f"{WEB_SEARCH.quantile(q):,.0f}" for q in qs]],
            ["datamining", *[f"{DATA_MINING.quantile(q):,.0f}" for q in qs]]]
    print(format_table(rows[0], rows[1:]))
    print(f"\nmean flow size: websearch={WEB_SEARCH.mean():,.0f}B "
          f"datamining={DATA_MINING.mean():,.0f}B")

    # Published shape: WS ~60% under 200KB; DM ~80% under 10KB with an
    # extreme tail; the sampled populations must match the analytic CDFs.
    assert WEB_SEARCH.cdf(200_000) == 0.60
    assert DATA_MINING.cdf(10_000) == 0.80
    assert abs(np.mean(ws <= 200_000) - 0.60) < 0.05
    assert abs(np.mean(dm <= 10_000) - 0.80) < 0.05
    # Data Mining is the heavier-tailed workload (Fig. 3's visual point).
    assert DATA_MINING.quantile(1.0) > WEB_SEARCH.quantile(1.0)
    assert DATA_MINING.quantile(0.5) < WEB_SEARCH.quantile(0.5)
