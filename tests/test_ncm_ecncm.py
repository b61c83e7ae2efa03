"""Tests for the Network Condition Monitor and the ECN Configuration Module."""

import numpy as np
import pytest

from repro.core.action import ActionCodec
from repro.core.config import PETConfig
from repro.core.ecn_cm import ECNConfigModule
from repro.core.ncm import FleetNCM
from tests.flow_rows import record


def mk_stats(switch="leaf0", flows=None):
    return record(switch, flows)


def obs(fid, src, dst, nbytes=1000, t=0.0):
    """Flow ``fid`` as a record lists it."""
    return (src, dst, nbytes, t)


def monitor(cfg=None):
    """One switch's monitor: the fleet of one."""
    return FleetNCM(["leaf0"], cfg or PETConfig())


def ingest(ncm, stats):
    """One slot; returns ``(incast degree, flow ratio, flows observed)``."""
    return tuple(column[0].item()
                 for column in ncm.ingest([stats], np.array([0])))


def incast_degree(table):
    return ingest(monitor(), mk_stats(flows=table))[0]


class TestIncastDegree:
    def test_empty(self):
        assert incast_degree({}) == 0

    def test_many_to_one(self):
        table = {i: obs(i, f"h{i}", "h9") for i in range(5)}
        assert incast_degree(table) == 5

    def test_max_over_receivers(self):
        table = {1: obs(1, "a", "x"), 2: obs(2, "b", "x"),
                 3: obs(3, "c", "y")}
        assert incast_degree(table) == 2

    def test_duplicate_senders_counted_once(self):
        table = {1: obs(1, "a", "x"), 2: obs(2, "a", "x")}
        assert incast_degree(table) == 1


class TestNCMIngestAnalyze:
    def test_analysis_combines_window_slots(self):
        ncm = monitor(PETConfig(history_k=3))
        incast, _, _ = ingest(ncm, mk_stats(flows={1: obs(1, "a", "x")}))
        assert incast == 1
        incast, _, flows = ingest(ncm,
                                  mk_stats(flows={2: obs(2, "b", "x")}))
        # both senders to x retained in the window
        assert incast == 2
        assert flows == 2

    def test_flow_ratio_from_observed_bytes(self):
        table = {1: obs(1, "a", "x", nbytes=100),
                 2: obs(2, "b", "x", nbytes=5_000_000)}
        _, ratio, _ = ingest(monitor(), mk_stats(flows=table))
        assert ratio == pytest.approx(0.5)

    def test_empty_observation_neutral_ratio(self):
        incast, ratio, _ = ingest(monitor(), mk_stats())
        assert ratio == 0.5
        assert incast == 0


class TestNCMCleanup:
    def test_scheduled_cleanup_expires_old_slots(self):
        cfg = PETConfig(history_k=2, ncm_cleanup_interval_slots=3,
                        ncm_memory_threshold_bytes=10**9)
        ncm = monitor(cfg)
        for i in range(6):
            ingest(ncm, mk_stats(flows={i: obs(i, "a", "x")}))
        assert ncm.cleanups_scheduled[0] == 2      # at slots 3 and 6
        assert ncm.retained_slots()[0] <= max(cfg.history_k,
                                              cfg.ncm_cleanup_interval_slots)
        assert ncm.entries_pruned[0] > 0

    def test_threshold_cleanup_on_burst(self):
        cfg = PETConfig(history_k=8, ncm_cleanup_interval_slots=100,
                        ncm_memory_threshold_bytes=48 * 10,   # tiny budget
                        ncm_threshold_drop_fraction=0.5)
        ncm = monitor(cfg)
        burst = {i: obs(i, f"h{i}", "agg", t=float(i)) for i in range(40)}
        ingest(ncm, mk_stats(flows=burst))
        assert ncm.cleanups_threshold[0] >= 1
        assert ncm.memory_bytes()[0] <= 48 * 40    # roughly half dropped
        assert ncm.entries_pruned[0] >= 20

    def test_memory_metering(self):
        ncm = monitor()
        assert ncm.memory_bytes()[0] == 0
        ingest(ncm, mk_stats(flows={1: obs(1, "a", "x")}))
        assert ncm.memory_bytes()[0] == 48


class DummyNetwork:
    def __init__(self):
        self.applied = []

    def set_ecn(self, switch, config):
        self.applied.append((switch, config))


class TestECNConfigModule:
    def test_apply_decodes_and_pushes(self):
        codec = ActionCodec.compact()
        mod = ECNConfigModule("leaf0", codec, min_interval=1e-3)
        net = DummyNetwork()
        out = mod.apply(3, now=0.0, network=net)
        assert out == codec.decode(3)
        assert net.applied == [("leaf0", out)]
        assert mod.applied == 1

    def test_rate_limit_suppresses_fast_retuning(self):
        codec = ActionCodec.compact()
        mod = ECNConfigModule("leaf0", codec, min_interval=1e-3)
        net = DummyNetwork()
        mod.apply(0, now=0.0, network=net)
        assert mod.apply(1, now=0.5e-3, network=net) is None
        assert mod.suppressed == 1
        assert mod.apply(1, now=1.1e-3, network=net) is not None

    def test_exact_interval_allowed(self):
        codec = ActionCodec.compact()
        mod = ECNConfigModule("leaf0", codec, min_interval=1e-3)
        net = DummyNetwork()
        mod.apply(0, now=0.0, network=net)
        assert mod.apply(1, now=1e-3, network=net) is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            ECNConfigModule("leaf0", ActionCodec.compact(), min_interval=-1)


class TestThresholdSweepSlotHygiene:
    """Regression: the threshold sweep used to leave emptied slots in the
    slot list, inflating the window the periodic sweep keys off and
    growing memory without bound under bursty incast."""

    @staticmethod
    def _data_bearing_slots(ncm):
        """Distinct slot numbers among the retained window entries."""
        return len(set(ncm._win[-1].tolist()))

    def _bursty_ncm(self):
        cfg = PETConfig(history_k=4, ncm_cleanup_interval_slots=10**6,
                        ncm_memory_threshold_bytes=48 * 2,    # ~2 entries
                        ncm_threshold_drop_fraction=0.5)
        return monitor(cfg)

    def test_sweep_drops_emptied_slots(self):
        ncm = self._bursty_ncm()
        for i in range(6):
            ingest(ncm, mk_stats(flows={i: obs(i, "a", "x", t=i * 1e-3)}))
        assert ncm.cleanups_threshold[0] >= 1
        # no empty husks
        assert ncm.retained_slots()[0] == self._data_bearing_slots(ncm) > 0

    def test_slot_count_stays_bounded_under_burst(self):
        ncm = self._bursty_ncm()
        for i in range(50):
            ingest(ncm, mk_stats(flows={i: obs(i, "a", "x", t=i * 1e-3)}))
        # pre-fix the list grew ~one emptied slot per sweep; post-fix the
        # retained slots are exactly the data-bearing ones
        assert ncm.retained_slots()[0] <= 3
        assert ncm.retained_slots()[0] == self._data_bearing_slots(ncm) > 0

    def test_memory_gauges_emitted_when_enabled(self):
        import repro.obs as obs_mod
        with obs_mod.telemetry() as (reg, _):
            ingest(monitor(), mk_stats(flows={1: obs(1, "a", "x")}))
            assert reg.gauge_value("ncm.memory_bytes", switch="leaf0") == 48.0
            assert reg.gauge_value("ncm.retained_slots", switch="leaf0") == 1.0
