"""Tests for CDFs, workloads, generators, incast, patterns, classification."""

import numpy as np
import pytest

from repro.netsim.flow import Flow
from repro.traffic import (DATA_MINING, WEB_SEARCH, IncastConfig,
                           IncastGenerator, PatternSchedule, PatternSegment,
                           PiecewiseCDF, PoissonTrafficGenerator,
                           TrafficConfig, workload_by_name)
from repro.traffic.classify import (count_classes, mice_elephant_ratio,
                                    split_by_class)


class TestPiecewiseCDF:
    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseCDF([(0, 0.0)])
        with pytest.raises(ValueError):
            PiecewiseCDF([(0, 0.0), (10, 0.5)])          # doesn't reach 1
        with pytest.raises(ValueError):
            PiecewiseCDF([(10, 0.0), (5, 1.0)])          # decreasing values
        with pytest.raises(ValueError):
            PiecewiseCDF([(0, 0.5), (10, 0.2), (20, 1.0)])  # decreasing probs

    def test_quantiles(self):
        cdf = PiecewiseCDF([(0, 0.0), (100, 1.0)])
        assert cdf.quantile(0.5) == pytest.approx(50)
        assert cdf.quantile(0.0) == pytest.approx(0)
        assert cdf.quantile(1.0) == pytest.approx(100)
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_quantile_subnormal_prob_interval_stays_finite(self):
        # np.interp's slope (dv/dp) overflows to inf when a knot
        # interval's probability width is subnormal; quantile() must not.
        cdf = PiecewiseCDF([(1, 0.0), (5, 2.2250738585072014e-308),
                            (6, 1.0)])
        q = cdf.quantile(2.225073858507203e-309)
        assert np.isfinite(q)
        assert 1.0 <= q <= cdf.quantile(1.0)

    def test_cdf_inverse_consistency(self):
        cdf = WEB_SEARCH
        for q in (0.1, 0.4, 0.75, 0.95):
            assert cdf.cdf(cdf.quantile(q)) == pytest.approx(q, abs=1e-9)

    def test_uniform_mean(self):
        cdf = PiecewiseCDF([(0, 0.0), (100, 1.0)])
        assert cdf.mean() == pytest.approx(50)

    def test_sample_mean_matches_analytic(self):
        rng = np.random.default_rng(0)
        samples = WEB_SEARCH.sample(rng, 200_000)
        assert np.mean(samples) == pytest.approx(WEB_SEARCH.mean(), rel=0.05)

    def test_sample_range(self):
        rng = np.random.default_rng(1)
        s = DATA_MINING.sample(rng, 10_000)
        assert s.min() >= DATA_MINING.values[0]
        assert s.max() <= DATA_MINING.values[-1]

    def test_scalar_sample(self):
        v = WEB_SEARCH.sample(np.random.default_rng(2))
        assert isinstance(v, float)


class TestWorkloads:
    def test_lookup_normalizes_names(self):
        assert workload_by_name("Web Search") is WEB_SEARCH
        assert workload_by_name("data_mining") is DATA_MINING
        with pytest.raises(KeyError):
            workload_by_name("hadoop")

    def test_datamining_heavier_tailed_than_websearch(self):
        """DM: most flows tiny, huge max; WS: mid-sized body (Fig. 3)."""
        assert DATA_MINING.quantile(0.5) < WEB_SEARCH.quantile(0.5)
        assert DATA_MINING.values[-1] > WEB_SEARCH.values[-1]

    def test_websearch_medians(self):
        # ~60% of Web Search flows are under 200 KB
        assert WEB_SEARCH.cdf(200_000) == pytest.approx(0.60, abs=0.01)

    def test_datamining_mostly_mice(self):
        # ~80% of Data Mining flows are under 10 KB
        assert DATA_MINING.cdf(10_000) == pytest.approx(0.80, abs=0.01)


class TestPoissonGenerator:
    def _gen(self, seed=0):
        hosts = [f"h{i}" for i in range(16)]
        return PoissonTrafficGenerator(hosts, WEB_SEARCH,
                                       rng=np.random.default_rng(seed))

    def test_offered_load_close_to_target(self):
        gen = self._gen()
        cfg = TrafficConfig(load=0.5, duration=2.0, host_rate_bps=1e9)
        flows = gen.generate(cfg)
        offered = sum(f.size_bytes for f in flows) / cfg.duration
        capacity = 16 * 1e9 / 8
        assert offered / capacity == pytest.approx(0.5, rel=0.15)

    def test_poisson_arrival_count(self):
        gen = self._gen(seed=1)
        cfg = TrafficConfig(load=0.4, duration=1.0, host_rate_bps=1e9)
        flows = gen.generate(cfg)
        lam = gen.arrival_rate(cfg)
        assert len(flows) == pytest.approx(lam, rel=0.2)

    def test_arrivals_within_window_and_sorted(self):
        gen = self._gen(seed=2)
        cfg = TrafficConfig(load=0.3, duration=0.5, host_rate_bps=1e9,
                            start_time=10.0)
        flows = gen.generate(cfg)
        times = [f.start_time for f in flows]
        assert all(10.0 <= t < 10.5 for t in times)
        assert times == sorted(times)

    def test_src_dst_distinct(self):
        flows = self._gen(seed=3).generate(
            TrafficConfig(load=0.3, duration=0.2, host_rate_bps=1e9))
        assert all(f.src != f.dst for f in flows)

    def test_flow_ids_unique_across_calls(self):
        gen = self._gen(seed=4)
        cfg = TrafficConfig(load=0.2, duration=0.1, host_rate_bps=1e9)
        a = gen.generate(cfg)
        b = gen.generate(cfg)
        ids = [f.flow_id for f in a + b]
        assert len(ids) == len(set(ids))

    def test_min_size_floor(self):
        flows = self._gen(seed=5).generate(TrafficConfig(
            load=0.3, duration=0.2, host_rate_bps=1e9, min_size=5_000))
        assert all(f.size_bytes >= 5_000 for f in flows)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficConfig(load=0.0, duration=1.0, host_rate_bps=1e9)
        with pytest.raises(ValueError):
            TrafficConfig(load=0.5, duration=-1.0, host_rate_bps=1e9)
        with pytest.raises(ValueError):
            PoissonTrafficGenerator(["h0"], WEB_SEARCH)


class TestIncastGenerator:
    def test_round_structure(self):
        hosts = [f"h{i}" for i in range(10)]
        gen = IncastGenerator(hosts, rng=np.random.default_rng(0))
        cfg = IncastConfig(fan_in=4, response_bytes=1000, period=1e-3,
                           duration=5e-3)
        flows = gen.generate(cfg, aggregator="h0")
        assert len(flows) == 5 * 4
        assert all(f.dst == "h0" for f in flows)
        assert all(f.src != "h0" for f in flows)

    def test_senders_distinct_within_round(self):
        hosts = [f"h{i}" for i in range(10)]
        gen = IncastGenerator(hosts, rng=np.random.default_rng(1))
        flows = gen.generate(IncastConfig(fan_in=6, response_bytes=100,
                                          period=1e-3, duration=1e-3),
                             aggregator="h3")
        srcs = [f.src for f in flows]
        assert len(srcs) == len(set(srcs))

    def test_fan_in_capped_by_host_count(self):
        hosts = [f"h{i}" for i in range(4)]
        gen = IncastGenerator(hosts, rng=np.random.default_rng(2))
        flows = gen.generate(IncastConfig(fan_in=100, response_bytes=100,
                                          period=1e-3, duration=1e-3))
        assert len(flows) == 3

    def test_rotating_aggregators(self):
        hosts = [f"h{i}" for i in range(16)]
        gen = IncastGenerator(hosts, rng=np.random.default_rng(3))
        flows = gen.generate(IncastConfig(fan_in=3, response_bytes=100,
                                          period=1e-3, duration=20e-3))
        assert len({f.dst for f in flows}) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            IncastConfig(fan_in=1)
        with pytest.raises(ValueError):
            IncastGenerator(["h0", "h1"])


class TestPatternSchedule:
    def test_fig6_schedule(self):
        sched = PatternSchedule.paper_fig6(load=0.5, scale=0.1)
        assert sched.workload_at(0.0) == "websearch"
        assert sched.workload_at(0.42) == "datamining"
        assert sched.workload_at(0.85) == "websearch"
        assert sched.workload_at(0.95) == "datamining"
        assert len(sched.switch_times()) == 3

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            PatternSchedule([
                PatternSegment("websearch", 0.0, 2.0, 0.5),
                PatternSegment("datamining", 1.0, 2.0, 0.5),
            ])

    def test_generate_flows_tags_by_segment(self):
        sched = PatternSchedule([
            PatternSegment("websearch", 0.0, 0.05, 0.5),
            PatternSegment("datamining", 0.05, 0.05, 0.5),
        ])
        hosts = [f"h{i}" for i in range(8)]
        flows = sched.generate_flows(hosts, 1e9,
                                     rng=np.random.default_rng(0))
        for f in flows:
            expected = "websearch" if f.start_time < 0.05 else "datamining"
            assert f.tag == expected

    def test_unknown_workload_rejected_eagerly(self):
        with pytest.raises(KeyError):
            PatternSegment("bogus", 0.0, 1.0, 0.5)


class TestClassification:
    def test_count_classes(self):
        assert count_classes([100, 2_000_000, 500]) == (2, 1)

    def test_ratio_bounds_and_empty(self):
        assert mice_elephant_ratio([]) == 0.5
        assert mice_elephant_ratio([1, 2, 3]) == 1.0
        assert mice_elephant_ratio([9_999_999]) == 0.0

    def test_split_by_class(self):
        flows = [Flow(1, "a", "b", 100), Flow(2, "a", "b", 5_000_000)]
        out = split_by_class(flows)
        assert [f.flow_id for f in out["mice"]] == [1]
        assert [f.flow_id for f in out["elephant"]] == [2]
