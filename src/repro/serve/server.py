"""HTTP face of the control plane (stdlib only, no new dependencies).

:class:`PolicyServer` binds a :class:`http.server.ThreadingHTTPServer`
over a :class:`~repro.serve.plane.ControlPlane` + optional
:class:`~repro.serve.supervisor.Supervisor`:

====== ============ ====================================================
Method Path         Meaning
====== ============ ====================================================
GET    ``/health``  Always 200; plane health + supervisor status.
GET    ``/ready``   200 only when health is ``ready`` (else 503) —
                    load-balancer style readiness probe.
GET    ``/state``   Full snapshot: queues, registry, windows, stacking.
POST   ``/action``  Manual bounds-checked ECN override.
POST   ``/reset``   Rebuild the fabric (fresh traffic).
POST   ``/rollout`` Lifecycle ops: register / promote / demote /
                    reload / status.
====== ============ ====================================================

All bodies are JSON; errors come back as ``{"error": ...}`` with a 4xx
status.  The handler never lets an exception escape into a hung
connection — unexpected failures become a 500 with the exception name.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.netsim.ecn import ECNConfig
from repro.serve.backoff import RetryPolicy, retry_call
from repro.serve.lifecycle import LifecycleError

__all__ = ["PolicyServer"]

#: request body size cap — this is a control API, not an upload target.
_MAX_BODY = 1 << 20


class PolicyServer:
    """Threaded HTTP server over a control plane.

    Parameters
    ----------
    plane:
        The :class:`~repro.serve.plane.ControlPlane` to expose.
    supervisor:
        Optional :class:`~repro.serve.supervisor.Supervisor`; its status
        is merged into ``/health`` when present.
    host, port:
        Bind address; ``port=0`` picks a free port (tests, CI smoke).
    """

    def __init__(self, plane: Any, supervisor: Any = None,
                 *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.plane = plane
        self.supervisor = supervisor
        handler = _build_handler(self)
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "PolicyServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="serve-http", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    # -- endpoint bodies ------------------------------------------------------
    def handle_get(self, path: str) -> Tuple[int, Dict[str, Any]]:
        if path == "/health":
            body = self.plane.health_snapshot()
            if self.supervisor is not None:
                body["supervisor"] = self.supervisor.status()
            return 200, body
        if path == "/ready":
            healthy = self.plane.health == "ready"
            return (200 if healthy else 503), {"ready": healthy,
                                               "status": self.plane.health}
        if path == "/state":
            return 200, self.plane.state_snapshot()
        return 404, {"error": f"no such endpoint {path!r}"}

    def handle_post(self, path: str,
                    body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        if path == "/action":
            return self._post_action(body)
        if path == "/reset":
            self.plane.reset()
            return 200, {"reset": True, "tick": self.plane.tick_count}
        if path == "/rollout":
            return self._post_rollout(body)
        return 404, {"error": f"no such endpoint {path!r}"}

    def _post_action(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        try:
            switch = body.get("switch", "*")
            config = ECNConfig(int(body["kmin_bytes"]),
                               int(body["kmax_bytes"]),
                               float(body.get("pmax", 0.01)))
        except (KeyError, TypeError, ValueError) as exc:
            return 400, {"error": f"bad action body: {exc}"}
        try:
            result = self.plane.manual_action(
                None if switch == "*" else switch, config)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        return 200, result

    def _post_rollout(self, body: Dict[str, Any]
                      ) -> Tuple[int, Dict[str, Any]]:
        op = body.get("op")
        try:
            if op == "status":
                return 200, self.plane.registry.snapshot()
            if op == "register":
                return self._register(body)
            if op == "promote":
                return 200, self.plane.promote(
                    str(body["name"]), force=bool(body.get("force", False)))
            if op == "demote":
                return 200, self.plane.demote(
                    reason=str(body.get("reason", "manual")))
            if op == "reload":
                return 200, self.plane.reload_policy(str(body["name"]))
        except (LifecycleError, KeyError, ValueError) as exc:
            return 400, {"error": str(exc)}
        return 400, {"error": f"unknown rollout op {op!r}"}

    def _register(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        name = body.get("name")
        if not name:
            return 400, {"error": "register needs a name"}
        scheme = body.get("scheme")
        ckpt_dir = body.get("checkpoint_dir")
        if not scheme:
            return 400, {"error": "register needs a scheme"}
        from repro.analysis.experiments import build_scheme
        try:
            controller = build_scheme(str(scheme),
                                      list(self.plane.switches),
                                      seed=body.get("seed"))
        except (KeyError, ValueError) as exc:
            return 400, {"error": f"bad scheme: {exc}"}
        checkpoints = None
        loaded_step = None
        if ckpt_dir:
            from repro.rl.checkpoint import (CheckpointCorruptError,
                                             CheckpointManager)
            checkpoints = CheckpointManager(str(ckpt_dir))
            try:
                latest = retry_call(
                    checkpoints.load_latest,
                    policy=RetryPolicy(attempts=3, base_delay_s=0.01),
                    retry_on=(CheckpointCorruptError, OSError))
            except Exception as exc:   # noqa: BLE001 — register without weights
                return 400, {"error": f"checkpoint dir unreadable: {exc}"}
            if latest is not None:
                state, loaded_step = latest
                try:
                    controller.load_state_dict(state)
                except Exception as exc:   # noqa: BLE001
                    return 400, {"error": f"checkpoint mismatch: {exc}"}
        snap = self.plane.register(str(name), controller,
                                   checkpoints=checkpoints,
                                   loaded_step=loaded_step)
        return 200, snap


def _build_handler(server: PolicyServer):
    """A request-handler class closed over the :class:`PolicyServer`."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Buffered: headers and body leave as one segment when the
        # handler flushes after the request.  Unbuffered, they are two
        # small writes on a keep-alive connection, and Nagle holds the
        # body until the client's delayed ACK (~40 ms per request).
        wbufsize = -1

        def log_message(self, fmt: str, *args: Any) -> None:
            pass               # quiet: obs carries the signal, not stderr

        def _reply(self, status: int, body: Dict[str, Any]) -> None:
            data = json.dumps(body).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:   # noqa: N802 — http.server API
            try:
                status, body = server.handle_get(self.path)
            except Exception as exc:   # noqa: BLE001 — never hang the socket
                status, body = 500, {"error": type(exc).__name__}
            self._reply(status, body)

        def do_POST(self) -> None:   # noqa: N802 — http.server API
            try:
                length = int(self.headers.get("Content-Length", 0) or 0)
                if length > _MAX_BODY:
                    self._reply(413, {"error": "body too large"})
                    return
                raw = self.rfile.read(length) if length else b"{}"
                try:
                    body = json.loads(raw or b"{}")
                except json.JSONDecodeError as exc:
                    self._reply(400, {"error": f"bad JSON: {exc}"})
                    return
                if not isinstance(body, dict):
                    self._reply(400, {"error": "body must be a JSON object"})
                    return
                status, reply = server.handle_post(self.path, body)
            except Exception as exc:   # noqa: BLE001
                status, reply = 500, {"error": type(exc).__name__}
            self._reply(status, reply)

    return Handler
