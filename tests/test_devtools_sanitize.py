"""Coverage for the runtime invariant sanitizer (repro.devtools.sanitize).

The repo conftest enables the global sanitizer for the whole suite, so
these tests exercise both the enabled-by-default wiring and targeted
violation triggers (by corrupting component state under the hood).
"""

import numpy as np
import pytest

from repro.devtools import sanitize
from repro.devtools.sanitize import InvariantViolation, SimSanitizer
from repro.netsim.ecn import ECNConfig, ECNMarker
from repro.netsim.engine import Simulator
from repro.netsim.network import PacketNetwork
from repro.netsim.packet import Packet, PacketKind
from repro.netsim.queueing import ByteQueue
from repro.netsim.switch import SwitchNode
from repro.netsim.topology import TopologyConfig


def _pkt(flow_id=1, size=1000, kind=PacketKind.DATA):
    return Packet(flow_id=flow_id, src="h0", dst="h1", size_bytes=size,
                  kind=kind)


def _small_net(seed=0):
    return PacketNetwork(TopologyConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2),
                         seed=seed)


class TestEnablement:
    def test_conftest_enabled_global_sanitizer(self):
        assert sanitize.is_enabled()
        assert sanitize.active() is not None

    def test_enable_is_idempotent(self):
        first = sanitize.enable()
        assert sanitize.enable() is first

    def test_disable_restores_original_methods(self):
        was = sanitize.active()
        orig_installed = was.installed
        sanitize.disable()
        try:
            assert not sanitize.is_enabled()
            assert "enqueue" not in [
                n for _, n, _ in getattr(was, "_saved", [])] or not was.installed
        finally:
            sanitize.enable()
        assert sanitize.is_enabled()
        assert orig_installed

    def test_env_var_parsing(self, monkeypatch):
        monkeypatch.delenv("PET_SANITIZE", raising=False)
        assert sanitize.enabled_from_env(default=True)
        assert not sanitize.enabled_from_env(default=False)
        for off in ("0", "false", "OFF", "no", ""):
            monkeypatch.setenv("PET_SANITIZE", off)
            assert not sanitize.enabled_from_env(default=True)
        monkeypatch.setenv("PET_SANITIZE", "1")
        assert sanitize.enabled_from_env(default=False)

    def test_context_manager_standalone(self):
        sanitize.disable()
        try:
            with SimSanitizer() as san:
                assert san.installed
                q = ByteQueue(capacity_bytes=10_000)
                q.enqueue(_pkt(), now=0.0)
                assert san.queue_checks > 0
            assert not san.installed
        finally:
            sanitize.enable()


class TestQueueInvariants:
    def test_clean_queue_traffic_passes(self):
        q = ByteQueue(capacity_bytes=10_000)
        assert q.enqueue(_pkt(1), now=0.0)
        assert q.enqueue(_pkt(2), now=0.1)
        assert q.dequeue(now=0.2) is not None
        assert q.dequeue(now=0.3) is not None

    def test_corrupted_qlen_raises_bounds_violation(self):
        q = ByteQueue(capacity_bytes=10_000)
        q.enqueue(_pkt(1), now=0.0)
        q.qlen_bytes = -5          # simulate a byte-accounting bug
        with pytest.raises(InvariantViolation) as exc:
            q.dequeue(now=0.1)
        assert exc.value.invariant in ("queue-bounds", "packet-conservation")

    def test_conservation_violation_has_context(self):
        q = ByteQueue(capacity_bytes=10_000)
        q.enqueue(_pkt(1), now=0.0)
        q.counters.enqueued_pkts += 3   # counter drift
        with pytest.raises(InvariantViolation) as exc:
            q.enqueue(_pkt(2), now=0.1)
        assert exc.value.invariant == "packet-conservation"
        assert exc.value.context["resident_pkts"] == 2
        assert "packet-conservation" in str(exc.value)

    def test_dropped_packets_do_not_break_conservation(self):
        q = ByteQueue(capacity_bytes=1_500)
        assert q.enqueue(_pkt(1), now=0.0)
        assert not q.enqueue(_pkt(2), now=0.1)      # over capacity -> drop
        assert q.counters.dropped_pkts == 1
        assert q.dequeue(now=0.2) is not None


class TestMarkerInvariants:
    def test_clean_marking_passes(self):
        m = ECNMarker(ECNConfig(1000, 2000, 0.5), rng=np.random.default_rng(0))
        for q in (0, 500, 1500, 2500):
            m.should_mark(q)

    def test_corrupted_pmax_raises(self):
        cfg = ECNConfig(1000, 2000, 0.5)
        object.__setattr__(cfg, "pmax", 1.7)   # bypass dataclass validation
        m = ECNMarker(cfg, rng=np.random.default_rng(0))
        with pytest.raises(InvariantViolation) as exc:
            m.should_mark(1_900)
        assert exc.value.invariant == "red-probability"

    def test_negative_qlen_raises(self):
        m = ECNMarker(ECNConfig(1000, 2000, 0.5), rng=np.random.default_rng(0))
        with pytest.raises(InvariantViolation):
            m.should_mark(-1)


class TestActionInvariants:
    def test_corrupted_threshold_order_raises_on_apply(self):
        net = _small_net()
        cfg = ECNConfig(1000, 2000, 0.5)
        object.__setattr__(cfg, "kmin_bytes", 5000)   # now Kmin > Kmax
        with pytest.raises(InvariantViolation) as exc:
            net.set_ecn(net.topology.switches()[0].name, cfg)
        assert exc.value.invariant == "ecn-thresholds"

    def test_switch_set_ecn_all_checked(self):
        sw = SwitchNode("leaf0")
        cfg = ECNConfig(1000, 2000, 0.5)
        object.__setattr__(cfg, "pmax", -0.2)
        with pytest.raises(InvariantViolation):
            sw.set_ecn_all(cfg)

    def test_valid_action_application_passes(self):
        net = _small_net()
        name = net.topology.switches()[0].name
        net.set_ecn(name, ECNConfig(5_000, 200_000, 0.01))

    def test_kmax_above_ceiling_raises_ecn_bounds(self):
        net = _small_net()
        ceiling = sanitize.ECN_KMAX_CEILING_BYTES
        with pytest.raises(InvariantViolation) as exc:
            net.set_ecn(net.topology.switches()[0].name,
                        ECNConfig(1_000, ceiling + 1, 0.5))
        assert exc.value.invariant == "ecn-bounds"

    def test_non_finite_threshold_raises_ecn_bounds(self):
        net = _small_net()
        cfg = ECNConfig(1_000, 2_000, 0.5)
        object.__setattr__(cfg, "kmax_bytes", float("nan"))
        with pytest.raises(InvariantViolation) as exc:
            net.set_ecn(net.topology.switches()[0].name, cfg)
        assert exc.value.invariant == "ecn-bounds"

    def test_kmax_at_ceiling_passes(self):
        net = _small_net()
        net.set_ecn(net.topology.switches()[0].name,
                    ECNConfig(5_000, sanitize.ECN_KMAX_CEILING_BYTES, 0.01))


class TestEngineInvariants:
    def test_normal_run_checks_every_event(self):
        san = sanitize.active()
        before = san.events_checked
        sim = Simulator()
        hits = []
        for i in range(5):
            sim.schedule(i * 1e-3, hits.append, i)
        sim.run()
        assert hits == [0, 1, 2, 3, 4]
        assert san.events_checked >= before + 5

    def test_backwards_time_detected(self):
        sim = Simulator()
        sim.schedule(1e-3, lambda: None)
        sim._san_last_now = 10.0    # claim we already observed t=10
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
        assert exc.value.invariant == "time-monotonic"


class TestNetworkAudit:
    def test_check_network_on_traffic_run(self):
        from repro.netsim.flow import Flow
        net = _small_net()
        for i in range(8):
            net.start_flow(Flow(flow_id=i, src=f"h{i % 2}", dst=f"h{2 + i % 2}",
                                size_bytes=20_000, start_time=i * 1e-4))
        net.advance(0.02)
        san = sanitize.active()
        san.check_network(net)          # must not raise on a healthy run
        assert san.queue_checks > 0

    def test_report_shape(self):
        rep = sanitize.active().report()
        assert set(rep) == {"events_checked", "queue_checks", "marker_checks",
                            "action_checks", "violations_raised"}


class TestInvariantViolationType:
    def test_is_assertion_error(self):
        assert issubclass(InvariantViolation, AssertionError)

    def test_message_includes_component_time_context(self):
        v = InvariantViolation("queue-bounds", "boom", time=1.5,
                               component="leaf0", context={"qlen_bytes": -1})
        s = str(v)
        assert "[queue-bounds]" in s and "leaf0" in s
        assert "t=1.5" in s and "qlen_bytes" in s
