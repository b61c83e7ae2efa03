"""Tests for flow-trace persistence."""

import numpy as np
import pytest

from repro.netsim.flow import Flow
from repro.traffic.generator import PoissonTrafficGenerator, TrafficConfig
from repro.traffic.trace import load_trace, save_trace, trace_summary
from repro.traffic.workloads import WEB_SEARCH


def sample_flows():
    return [
        Flow(2, "h1", "h0", 2_000_000, start_time=0.5, tag="bg"),
        Flow(1, "h0", "h3", 10_000, start_time=0.1, tag="incast"),
    ]


class TestRoundtrip:
    def test_save_load(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        n = save_trace(path, sample_flows())
        assert n == 2
        back = load_trace(path)
        assert [f.flow_id for f in back] == [1, 2]   # sorted by start
        f = back[1]
        assert (f.src, f.dst, f.size_bytes) == ("h1", "h0", 2_000_000)
        assert f.start_time == pytest.approx(0.5)
        assert f.tag == "bg"

    def test_float_precision_preserved(self, tmp_path):
        path = str(tmp_path / "t.csv")
        t = 0.123456789012345
        save_trace(path, [Flow(1, "a", "b", 100, start_time=t)])
        assert load_trace(path)[0].start_time == t

    def test_generated_trace_roundtrip(self, tmp_path):
        gen = PoissonTrafficGenerator([f"h{i}" for i in range(8)],
                                      WEB_SEARCH,
                                      rng=np.random.default_rng(0))
        flows = gen.generate(TrafficConfig(load=0.3, duration=0.05,
                                           host_rate_bps=1e9))
        path = str(tmp_path / "gen.csv")
        save_trace(path, flows)
        back = load_trace(path)
        assert len(back) == len(flows)
        assert sum(f.size_bytes for f in back) == \
            sum(f.size_bytes for f in flows)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("flow_id,src,dst\n1,a,b\n")
        with pytest.raises(ValueError):
            load_trace(str(path))

    def test_nan_start_time_rejected(self, tmp_path):
        """A ``nan`` cell once loaded: the sort ordered around it and the
        flow stayed pending on a fluid network forever."""
        path = tmp_path / "nan.csv"
        path.write_text("flow_id,src,dst,size_bytes,start_time,tag\n"
                        "1,h0,h2,500000,0.0,\n2,h1,h3,500000,nan,\n")
        with pytest.raises(ValueError, match="start_time must be finite"):
            load_trace(str(path))

    def test_replay_into_simulator(self, tmp_path):
        from repro.netsim.fluid import FluidConfig, FluidNetwork
        path = str(tmp_path / "replay.csv")
        save_trace(path, [Flow(1, "h0", "h2", 500_000, start_time=0.0)])
        net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9), seed=0)
        net.start_flows(load_trace(path))
        net.advance(0.05)
        assert len(net.finished_flows) == 1


class TestSummary:
    def test_empty(self):
        s = trace_summary([])
        assert s["flows"] == 0 and s["bytes"] == 0

    def test_counts(self):
        s = trace_summary(sample_flows())
        assert s["flows"] == 2
        assert s["bytes"] == 2_010_000
        assert s["duration"] == pytest.approx(0.4)
        assert s["mice"] == 1 and s["elephants"] == 1
