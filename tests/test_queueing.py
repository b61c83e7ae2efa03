"""Tests for the byte queue: FIFO, drops, time averages, flow observation."""

import pytest

from repro.netsim.packet import Packet, PacketKind
from repro.netsim.queueing import ByteQueue


def _pkt(flow_id=1, size=100, kind=PacketKind.DATA, src="h0", dst="h1"):
    return Packet(flow_id=flow_id, src=src, dst=dst, size_bytes=size, kind=kind)


class TestFIFO:
    def test_enqueue_dequeue_order(self):
        q = ByteQueue(10_000)
        for i in range(3):
            assert q.enqueue(_pkt(flow_id=i), now=0.0)
        got = [q.dequeue(0.1).flow_id for _ in range(3)]
        assert got == [0, 1, 2]
        assert q.dequeue(0.2) is None

    def test_occupancy_tracks_bytes(self):
        q = ByteQueue(10_000)
        q.enqueue(_pkt(size=300), 0.0)
        q.enqueue(_pkt(size=200), 0.0)
        assert q.qlen_bytes == 500
        q.dequeue(0.1)
        assert q.qlen_bytes == 200

    def test_drop_when_full(self):
        q = ByteQueue(250)
        assert q.enqueue(_pkt(size=200), 0.0)
        assert not q.enqueue(_pkt(size=100), 0.0)
        assert q.counters.dropped_pkts == 1
        assert q.counters.dropped_bytes == 100
        assert q.qlen_bytes == 200

    def test_marked_bytes_counter(self):
        q = ByteQueue(10_000)
        p = _pkt(size=100)
        p.mark_ce()
        q.enqueue(p, 0.0)
        q.enqueue(_pkt(size=100), 0.0)
        q.dequeue(0.1)
        q.dequeue(0.2)
        assert q.counters.dequeued_marked_bytes == 100
        assert q.counters.dequeued_bytes == 200


class TestTimeAverage:
    def test_constant_occupancy(self):
        q = ByteQueue(10_000)
        q.enqueue(_pkt(size=500), 0.0)
        assert q.time_avg_qlen(1.0) == pytest.approx(500.0)

    def test_step_occupancy(self):
        q = ByteQueue(10_000)
        q.enqueue(_pkt(size=1000), 0.0)   # 1000 bytes on [0, 1)
        q.dequeue(1.0)                    # 0 bytes on [1, 2)
        assert q.time_avg_qlen(2.0) == pytest.approx(500.0)

    def test_reset_restarts_window(self):
        q = ByteQueue(10_000)
        q.enqueue(_pkt(size=1000), 0.0)
        q.reset_time_avg(1.0)
        assert q.time_avg_qlen(2.0) == pytest.approx(1000.0)

    def test_zero_elapsed_returns_instantaneous(self):
        q = ByteQueue(10_000)
        q.enqueue(_pkt(size=700), 0.0)
        assert q.time_avg_qlen(0.0) == pytest.approx(700.0)


class TestFlowObservation:
    def test_data_packets_observed(self):
        q = ByteQueue(10_000)
        q.enqueue(_pkt(flow_id=7, size=100), 1.0)
        q.enqueue(_pkt(flow_id=7, size=200), 2.0)
        obs = q.flow_obs[7]
        assert obs.bytes_seen == 300
        assert obs.last_seen == 2.0
        assert obs.src == "h0" and obs.dst == "h1"

    def test_control_packets_not_observed(self):
        q = ByteQueue(10_000)
        q.enqueue(_pkt(flow_id=9, kind=PacketKind.ACK, size=64), 0.0)
        assert 9 not in q.flow_obs


def test_invalid_capacity():
    with pytest.raises(ValueError):
        ByteQueue(0)
