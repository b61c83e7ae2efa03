"""Tests for packets, ECN codepoints, and flow bookkeeping."""

import pytest

from repro.netsim.flow import Flow, MICE_ELEPHANT_THRESHOLD, classify_flow_size
from repro.netsim.packet import ECNCodepoint, Packet, PacketKind


class TestPacket:
    def test_defaults(self):
        p = Packet(flow_id=1, src="h0", dst="h1", size_bytes=1000)
        assert p.kind == PacketKind.DATA
        assert p.ecn == ECNCodepoint.ECT
        assert not p.marked

    def test_mark_ce_on_ect(self):
        p = Packet(flow_id=1, src="h0", dst="h1", size_bytes=1000)
        p.mark_ce()
        assert p.marked
        assert p.ecn == ECNCodepoint.CE

    def test_mark_ce_noop_on_non_ect(self):
        p = Packet(flow_id=1, src="h0", dst="h1", size_bytes=64,
                   ecn=ECNCodepoint.NON_ECT)
        p.mark_ce()
        assert not p.marked

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(flow_id=1, src="h0", dst="h1", size_bytes=0)

    def test_latency(self):
        p = Packet(flow_id=1, src="h0", dst="h1", size_bytes=100,
                   create_time=1.0)
        p.deliver_time = 1.5
        assert p.latency() == pytest.approx(0.5)

    def test_control_detection(self):
        ack = Packet(flow_id=1, src="h0", dst="h1", size_bytes=64,
                     kind=PacketKind.ACK)
        cnp = Packet(flow_id=1, src="h0", dst="h1", size_bytes=64,
                     kind=PacketKind.CNP)
        data = Packet(flow_id=1, src="h0", dst="h1", size_bytes=64)
        assert ack.is_control() and cnp.is_control()
        assert not data.is_control()


class TestFlow:
    def test_classification_threshold(self):
        assert classify_flow_size(MICE_ELEPHANT_THRESHOLD) == "mice"
        assert classify_flow_size(MICE_ELEPHANT_THRESHOLD + 1) == "elephant"

    def test_flow_kind_properties(self):
        mouse = Flow(1, "h0", "h1", 10_000)
        eleph = Flow(2, "h0", "h1", 20_000_000)
        assert mouse.is_mice and not mouse.is_elephant
        assert eleph.is_elephant and not eleph.is_mice

    def test_fct_none_until_finished(self):
        f = Flow(1, "h0", "h1", 1000, start_time=2.0)
        assert f.fct is None and not f.done
        f.finish_time = 2.5
        assert f.done
        assert f.fct == pytest.approx(0.5)

    def test_ideal_fct(self):
        f = Flow(1, "h0", "h1", 1_000_000)
        # 1 MB over 1 Gbps = 8 ms, plus RTT
        assert f.ideal_fct(1e9, base_rtt=1e-3) == pytest.approx(9e-3)

    def test_ideal_fct_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Flow(1, "h0", "h1", 1000).ideal_fct(0.0)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Flow(1, "h0", "h1", 0)

    @pytest.mark.parametrize("size", [float("nan"), float("inf"),
                                      float("-inf")])
    def test_non_finite_size_rejected(self, size):
        """``nan <= 0`` is False: a NaN size once passed, and a fluid
        network sent it at line rate without ever finishing it."""
        with pytest.raises(ValueError, match="size_bytes must be finite"):
            Flow(1, "h0", "h1", size)

    @pytest.mark.parametrize("start", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_start_time_rejected(self, start):
        with pytest.raises(ValueError, match="start_time must be finite"):
            Flow(1, "h0", "h1", 1000, start_time=start)

    def test_negative_start_time_accepted(self):
        assert Flow(1, "h0", "h1", 1000, start_time=-2.5).start_time < 0

    def test_remaining_bytes(self):
        f = Flow(1, "h0", "h1", 1000)
        f.bytes_sent = 400
        assert f.remaining_bytes() == 600
        f.bytes_sent = 1500
        assert f.remaining_bytes() == 0
