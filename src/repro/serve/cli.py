"""``python -m repro serve`` — run the control plane, or its CI smoke.

Two modes:

- default: build a fluid fabric with traffic, start the supervised
  rollout loop and the HTTP server, print the URL, and run until the
  tick budget (or Ctrl-C);
- ``--smoke``: the CI end-to-end check.  Starts the full stack on an
  ephemeral port with a chaos plan (an agent-crash window plus a
  telemetry-corruption window), drives it purely over HTTP — register a
  shadow PET policy, watch ``/health`` go degraded and recover — and
  asserts the robustness invariants: the shadow proposed actions but
  none were applied, faults were injected and survived, the plane ends
  ready.  Exits 0/1 and writes a JSONL obs trace for the artifact
  upload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

from repro import obs
from repro.analysis.experiments import (ScenarioConfig, _load_traffic,
                                        _make_network)
from repro.netsim.fluid import FluidConfig
from repro.obs.export import write_jsonl
from repro.resilience.faults import ChaosInjector, FaultPlan
from repro.serve.gate import GateConfig, PromotionGate
from repro.serve.plane import ControlPlane, ServeConfig
from repro.serve.server import PolicyServer
from repro.serve.supervisor import Supervisor

__all__ = ["serve_main"]


def _build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro serve",
        description="supervised policy control plane (docs/SERVING.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321,
                   help="bind port (0 = ephemeral)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", default="websearch",
                   choices=["websearch", "datamining"])
    p.add_argument("--load", type=float, default=0.6)
    p.add_argument("--ticks", type=int, default=0,
                   help="stop after N ticks (0 = run until Ctrl-C)")
    p.add_argument("--smoke", action="store_true",
                   help="CI smoke: chaos + shadow registration over HTTP, "
                        "assert the lifecycle invariants, exit 0/1")
    p.add_argument("--out", default=None,
                   help="write a JSONL obs trace on exit")
    return p


def _make_plane(args: argparse.Namespace, *, smoke: bool) -> ControlPlane:
    fabric = (FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=4,
                          host_rate_bps=10e9, spine_rate_bps=40e9)
              if smoke else
              FluidConfig(n_spine=2, n_leaf=4, hosts_per_leaf=8,
                          host_rate_bps=10e9, spine_rate_bps=40e9))
    cfg = ScenarioConfig(workload=args.workload, load=args.load,
                         duration=0.5, seed=args.seed, fluid=fabric)

    def network_factory():
        net = _make_network(cfg, args.seed)
        _load_traffic(net, cfg, args.seed)
        return net

    chaos_factory = None
    if smoke:
        def chaos_factory(net):  # noqa: F811 — the smoke plan
            sw = sorted(net.switch_names())
            plan = (FaultPlan()
                    .agent_crash(sw[0], 0.020, 0.050)
                    .corrupt(sw[1 % len(sw)], 0.025, 0.045,
                             stats_field="avg_qlen_bytes",
                             value=float("nan")))
            return ChaosInjector(net, plan)

    gate = PromotionGate(GateConfig(
        min_shadow_ticks=5, canary_ticks=30, eval_min_ticks=5,
        cooldown_ticks=20, window_ticks=30)) if smoke else None
    serve_cfg = ServeConfig(degraded_hold_ticks=40) if smoke else None
    return ControlPlane(network_factory, config=serve_cfg, gate=gate,
                        chaos_factory=chaos_factory)


# ---------------------------------------------------------------- HTTP client
def _http(url: str, payload: Optional[Dict[str, Any]] = None,
          timeout: float = 5.0) -> Dict[str, Any]:
    """One JSON request; 4xx/5xx replies are returned, not raised."""
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return json.loads(exc.read() or b"{}")


def _wait_for(predicate, *, timeout_s: float, poll_s: float = 0.01,
              collect=None) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if collect is not None:
            collect(value)
        if value:
            return True
        time.sleep(poll_s)
    return False


# ---------------------------------------------------------------- smoke check
def _run_smoke(args: argparse.Namespace) -> int:
    registry, tracer = obs.enable()
    plane = _make_plane(args, smoke=True)
    supervisor = Supervisor(plane, tick_sleep_s=0.002, max_restarts=3)
    server = PolicyServer(plane, supervisor, host=args.host, port=0)
    failures: List[str] = []
    seen_states: List[str] = []

    def health() -> Dict[str, Any]:
        body = _http(f"{server.url}/health")
        status = body.get("status", "?")
        if not seen_states or seen_states[-1] != status:
            seen_states.append(status)
        return body

    try:
        server.start()
        supervisor.start()

        if not _wait_for(lambda: health().get("status") == "ready",
                         timeout_s=10.0):
            failures.append("plane never became ready")

        reply = _http(f"{server.url}/rollout",
                      {"op": "register", "name": "pet0", "scheme": "pet",
                       "seed": args.seed})
        if "error" in reply:
            failures.append(f"register failed: {reply['error']}")

        # Ride through the chaos window (agent crash at sim 20–50 ms,
        # Δt = 1 ms → ticks 20–50) and the degraded hold after it.
        def past_chaos() -> bool:
            return health().get("tick", 0) >= 120
        if not _wait_for(past_chaos, timeout_s=30.0, poll_s=0.005):
            failures.append("rollout loop stalled before tick 120")

        if "degraded" not in seen_states:
            failures.append(
                f"health never reported degraded (saw {seen_states})")
        if not _wait_for(lambda: health().get("status") == "ready",
                         timeout_s=15.0):
            failures.append(
                f"health never recovered to ready (saw {seen_states})")

        state = _http(f"{server.url}/state")
        applied = state.get("applied_by", {})
        pet0 = state.get("registry", {}).get("policies", {}).get("pet0", {})
        if "shadow" in applied:
            failures.append("applied_by has a 'shadow' source")
        if applied.get("canary", 0) != 0:
            failures.append("canary actions applied without a promotion")
        if pet0.get("proposals", 0) <= 0:
            failures.append("shadow pet0 never proposed an action")
        if pet0.get("stage") not in ("shadow",):
            failures.append(f"pet0 left shadow unexpectedly: {pet0}")
        if registry.counter_value("faults", kind="agent-crash") <= 0:
            failures.append("chaos agent-crash fault never fired")
        ready = _http(f"{server.url}/ready")
        if not ready.get("ready"):
            failures.append(f"/ready disagrees at exit: {ready}")
    finally:
        supervisor.stop()
        server.stop()
        plane.close()
        if args.out:
            lines = write_jsonl(
                args.out, tracer, registry,
                meta={"mode": "serve-smoke", "states": seen_states})
            print(f"wrote {lines} obs lines to {args.out}", file=sys.stderr)
        obs.disable()

    if failures:
        for f in failures:
            print(f"SMOKE FAIL: {f}", file=sys.stderr)
        return 1
    print(f"serve smoke OK: states={'→'.join(seen_states)} "
          f"shadow_proposals={pet0.get('proposals')} "
          f"applied_by={applied}")
    return 0


# ---------------------------------------------------------------- long-runner
def _run_server(args: argparse.Namespace) -> int:
    if args.out:
        obs.enable()
    plane = _make_plane(args, smoke=False)
    supervisor = Supervisor(plane, tick_sleep_s=0.001, max_restarts=3)
    server = PolicyServer(plane, supervisor, host=args.host, port=args.port)
    try:
        server.start()
        supervisor.start()
        print(f"serving on {server.url} (Ctrl-C to stop)", file=sys.stderr)
        if args.ticks > 0:
            while supervisor.ticks < args.ticks and plane.health != "failed":
                time.sleep(0.02)
        else:
            while plane.health != "failed":
                time.sleep(0.2)
        if plane.health == "failed":
            print(f"plane failed: {plane.failure_reason}", file=sys.stderr)
            return 1
        return 0
    except KeyboardInterrupt:
        return 0
    finally:
        supervisor.stop()
        server.stop()
        plane.close()
        if args.out:
            write_jsonl(args.out, obs.get_tracer(), obs.get_registry(),
                        meta={"mode": "serve"})
            obs.disable()


def serve_main(argv: Optional[List[str]] = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    if args.smoke:
        return _run_smoke(args)
    return _run_server(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(serve_main())
