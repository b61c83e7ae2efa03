"""End-to-end HTTP tests: a real ThreadingHTTPServer on an ephemeral
port, driven with urllib — no test client shims."""

import http.client
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.serve.gate import GateConfig, PromotionGate
from repro.serve.plane import ControlPlane, ServeConfig
from repro.serve.server import PolicyServer
from repro.serve.supervisor import Supervisor


def _tiny_factory():
    return FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                    host_rate_bps=10e9,
                                    spine_rate_bps=40e9), seed=0)


def _request(url, payload=None, timeout=5.0):
    """(status, body) for one JSON round-trip; 4xx/5xx don't raise."""
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


@pytest.fixture()
def served():
    plane = ControlPlane(
        _tiny_factory,
        config=ServeConfig(degraded_hold_ticks=3),
        gate=PromotionGate(GateConfig(min_shadow_ticks=1, canary_ticks=50,
                                      eval_min_ticks=2, cooldown_ticks=5,
                                      window_ticks=10)))
    plane.sleep = lambda _s: None
    server = PolicyServer(plane, host="127.0.0.1", port=0).start()
    try:
        yield plane, server
    finally:
        server.stop()
        plane.close()


class TestEndpoints:
    def test_health_always_200(self, served):
        plane, server = served
        status, body = _request(f"{server.url}/health")
        assert status == 200
        assert body["status"] == "starting"
        assert body["incumbent"] == "static"

    def test_ready_is_503_until_first_tick(self, served):
        plane, server = served
        status, body = _request(f"{server.url}/ready")
        assert status == 503
        assert body["ready"] is False
        plane.tick()
        status, body = _request(f"{server.url}/ready")
        assert status == 200
        assert body["ready"] is True

    def test_state_snapshot_shape(self, served):
        plane, server = served
        plane.tick()
        status, body = _request(f"{server.url}/state")
        assert status == 200
        assert body["applied_by"]["incumbent"] == 1
        assert "static" in body["registry"]["policies"]
        assert set(body["gate"]) >= {"min_shadow_ticks", "canary_ticks"}
        assert body["queues"]                  # per-switch stats present

    def test_unknown_path_404(self, served):
        _, server = served
        status, body = _request(f"{server.url}/nope")
        assert status == 404
        assert "error" in body

    def test_action_applies_and_validates(self, served):
        plane, server = served
        status, body = _request(f"{server.url}/action",
                                {"switch": "*", "kmin_bytes": 5_000,
                                 "kmax_bytes": 50_000, "pmax": 0.1})
        assert status == 200
        assert plane.applied_by["manual"] == 1
        status, body = _request(f"{server.url}/action",
                                {"switch": "*", "kmin_bytes": 5_000})
        assert status == 400 and "error" in body
        status, body = _request(f"{server.url}/action",
                                {"switch": "ghost", "kmin_bytes": 5_000,
                                 "kmax_bytes": 50_000})
        assert status == 400 and "unknown switch" in body["error"]

    def test_bad_json_is_400_not_500(self, served):
        _, server = served
        req = urllib.request.Request(
            f"{server.url}/action", data=b"{not json",
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=5.0) as resp:
                status = resp.status
        except urllib.error.HTTPError as exc:
            status = exc.code
        assert status == 400

    def test_reset_endpoint(self, served):
        plane, server = served
        old_net = plane.net
        status, body = _request(f"{server.url}/reset", {})
        assert status == 200 and body["reset"] is True
        assert plane.net is not old_net


    def test_keep_alive_reply_is_one_segment(self, served):
        """Headers and body written separately on a keep-alive socket
        cost one Nagle/delayed-ACK stall (~44 ms on loopback) per
        request; sent as one segment a request takes about a millisecond."""
        plane, server = served
        plane.tick()
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=5.0)
        laps = []
        try:
            for _ in range(20):
                t0 = time.perf_counter()
                conn.request("GET", "/state")
                resp = conn.getresponse()
                body = resp.read()
                laps.append(time.perf_counter() - t0)
                assert resp.status == 200 and json.loads(body)
        finally:
            conn.close()
        # the median, so one scheduler stall on a busy box cannot fail it
        assert sorted(laps)[len(laps) // 2] < 0.015


class TestRolloutOps:
    def test_register_promote_rollback_over_http(self, served):
        plane, server = served
        status, body = _request(
            f"{server.url}/rollout",
            {"op": "register", "name": "pet0", "scheme": "pet", "seed": 0})
        assert status == 200
        assert body["stage"] == "shadow"

        # Not eligible yet (no clean streak) — a clean 400, not a 500.
        status, body = _request(f"{server.url}/rollout",
                                {"op": "promote", "name": "pet0"})
        assert status == 400 and "clean shadow" in body["error"]

        plane.run_ticks(3)                     # builds the streak
        status, body = _request(f"{server.url}/rollout",
                                {"op": "promote", "name": "pet0"})
        assert status == 200
        assert body["stage"] == "canary"

        status, body = _request(f"{server.url}/rollout", {"op": "status"})
        assert status == 200
        assert body["canary"] == "pet0"

    def test_register_validates(self, served):
        _, server = served
        status, body = _request(f"{server.url}/rollout",
                                {"op": "register", "name": "x"})
        assert status == 400 and "scheme" in body["error"]
        status, body = _request(f"{server.url}/rollout",
                                {"op": "register", "name": "x",
                                 "scheme": "not-a-scheme"})
        assert status == 400
        status, body = _request(f"{server.url}/rollout", {"op": "warp"})
        assert status == 400 and "unknown rollout op" in body["error"]

    def test_demote_over_http(self, served):
        plane, server = served
        status, body = _request(f"{server.url}/rollout",
                                {"op": "demote", "reason": "drill"})
        assert status == 200
        assert body["name"] == "static"        # static floor: no-op demote


class TestSupervisedServer:
    def test_health_includes_supervisor_status(self):
        plane = ControlPlane(_tiny_factory, config=ServeConfig())
        plane.sleep = lambda _s: None
        sup = Supervisor(plane, tick_sleep_s=0.001,
                         watchdog_interval_s=0.01).start()
        server = PolicyServer(plane, sup, host="127.0.0.1", port=0).start()
        try:
            import time
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                status, body = _request(f"{server.url}/health")
                if body.get("status") == "ready":
                    break
                time.sleep(0.01)
            assert body["status"] == "ready"
            assert body["supervisor"]["running"] is True
            assert body["supervisor"]["restarts"] == 0
        finally:
            sup.stop()
            server.stop()
            plane.close()
