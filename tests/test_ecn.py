"""Tests for RED/ECN marking."""

import numpy as np
import pytest

from repro.netsim.ecn import ECNConfig, ECNMarker, SECN1, SECN2


class TestECNConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ECNConfig(kmin_bytes=-1, kmax_bytes=100, pmax=0.5)
        with pytest.raises(ValueError):
            ECNConfig(kmin_bytes=200, kmax_bytes=100, pmax=0.5)
        with pytest.raises(ValueError):
            ECNConfig(kmin_bytes=0, kmax_bytes=100, pmax=1.5)
        with pytest.raises(ValueError):
            ECNConfig(kmin_bytes=0, kmax_bytes=0, pmax=0.5)

    def test_marking_probability_regions(self):
        c = ECNConfig(kmin_bytes=100, kmax_bytes=300, pmax=0.5)
        assert c.marking_probability(50) == 0.0
        assert c.marking_probability(100) == 0.0
        assert c.marking_probability(200) == pytest.approx(0.25)
        assert c.marking_probability(300) == 1.0
        assert c.marking_probability(1_000_000) == 1.0

    def test_marking_probability_linear_ramp(self):
        c = ECNConfig(kmin_bytes=0, kmax_bytes=1000, pmax=1.0)
        for q in (0, 250, 500, 750):
            assert c.marking_probability(q) == pytest.approx(q / 1000)

    def test_published_static_configs(self):
        assert SECN1.kmin_bytes == 5_000 and SECN1.kmax_bytes == 200_000
        assert SECN2.kmin_bytes == 100_000 and SECN2.kmax_bytes == 400_000


class TestECNMarker:
    def test_never_marks_below_kmin(self):
        m = ECNMarker(ECNConfig(1000, 2000, 1.0), rng=np.random.default_rng(0))
        assert not any(m.should_mark(500) for _ in range(200))

    def test_always_marks_at_kmax(self):
        m = ECNMarker(ECNConfig(1000, 2000, 0.3), rng=np.random.default_rng(0))
        assert all(m.should_mark(5000) for _ in range(50))

    def test_intermediate_marking_rate_matches_probability(self):
        cfg = ECNConfig(0, 1000, 1.0)
        m = ECNMarker(cfg, rng=np.random.default_rng(42))
        n = 20_000
        marks = sum(m.should_mark(300) for _ in range(n))
        assert marks / n == pytest.approx(0.3, abs=0.02)

    def test_counters_and_fraction(self):
        m = ECNMarker(ECNConfig(0, 100, 1.0), rng=np.random.default_rng(0))
        assert m.mark_fraction() == 0.0
        m.should_mark(1_000)   # always marks
        m.should_mark(0)       # never marks (qlen <= kmin=0 -> p=0)
        assert m.decisions == 2
        assert m.marks == 1
        assert m.mark_fraction() == pytest.approx(0.5)

    def test_reconfigure(self):
        m = ECNMarker(ECNConfig(1000, 2000, 1.0), rng=np.random.default_rng(0))
        assert not m.should_mark(500)
        m.set_config(ECNConfig(100, 200, 1.0))
        assert m.should_mark(500)


class TestDelayDerivedECN:
    def test_delay_to_bytes_conversion(self):
        cfg = ECNConfig.from_delay(100e-6, 10e9)   # 100us at 10 Gbps
        assert cfg.kmax_bytes == 125_000
        assert cfg.kmin_bytes == 31_250

    def test_scales_with_port_speed(self):
        slow = ECNConfig.from_delay(50e-6, 25e9)
        fast = ECNConfig.from_delay(50e-6, 100e9)
        assert fast.kmax_bytes == 4 * slow.kmax_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            ECNConfig.from_delay(0.0, 1e9)
        with pytest.raises(ValueError):
            ECNConfig.from_delay(1e-3, 0.0)

    def test_marks_at_equivalent_delay(self):
        cfg = ECNConfig.from_delay(10e-6, 8e9, pmax=1.0)  # 10us at 8 Gbps
        # queue of exactly the delay budget: at Kmax -> always mark
        assert cfg.marking_probability(10_000) == 1.0
        assert cfg.marking_probability(1_000) == 0.0
