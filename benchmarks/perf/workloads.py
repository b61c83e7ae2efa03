"""The four closed-loop workloads and the per-layer metrics taken from them.

Every workload is one single-process closed loop: the next control tick
(or HTTP request, or scenario job) is issued when the previous one
returned.  Sizes are fixed by ``--seconds`` alone (``NOMINAL_SECONDS``
gives the sizes the README quotes), so the simulated results are a
function of ``(workload, seed, seconds)`` and two commits can be compared
exactly.  README.md says why each workload exists and which layer does
its work.
"""

from __future__ import annotations

import bisect
import http.client
import json
import math
import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.experiments import (ScenarioConfig, clear_pretrain_cache,
                                        run_scenario, run_scenario_grid)
from repro.analysis.fct import fct_statistics
from repro.baselines.static_ecn import StaticECNController, secn1
from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.fastpath.bench import fingerprint
from repro.netsim.batchfluid import BatchFluidNetwork
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.fluid import (FlowTableMixin, FluidConfig, FluidNetwork,
                                SwitchStatsMixin)
from repro.netsim.shard import ShardedFluidNetwork
from repro.resilience.guard import config_in_bounds
from repro.rl.ippo import IPPOTrainer
from repro.serve.gate import GateConfig, PromotionGate
from repro.serve.plane import ControlPlane, ServeConfig
from repro.serve.server import PolicyServer
from repro.traffic.generator import PoissonTrafficGenerator, TrafficConfig
from repro.traffic.workloads import workload_by_name

from stats import percentile
from tracing import Tracer, Window, proxy_cost_s

#: tuning interval Δt and the fluid sub-steps it contains (step_dt = 50 µs).
DT = 1e-3
SUBSTEPS = 20
#: ``run_seconds`` in BENCHMARK.json; the sizes below are quoted for it.
NOMINAL_SECONDS = 15.0

_clock = time.perf_counter


# ------------------------------------------------------------ layer proxies
def install_layer_proxies(tracer: Tracer) -> List[IPPOTrainer]:
    """Wrap each layer's public calls in timing proxies (traced runs only).

    ``core.decide`` spans carry ``len(applied)``; ``rl.act`` spans carry the
    acting trainer's index in the returned list (for ``rl.stacked_share``).
    """
    trainers: List[IPPOTrainer] = []
    index: Dict[int, int] = {}

    def count_applied(args: tuple, applied: Any) -> int:
        return len(applied or ())

    def trainer_index(args: tuple, _result: Any) -> int:
        if id(args[0]) not in index:
            index[id(args[0])] = len(trainers)
            trainers.append(args[0])
        return index[id(args[0])]

    for owner in (FluidNetwork, ShardedFluidNetwork, BatchFluidNetwork):
        tracer.patch(owner, "advance", "netsim.advance")
    tracer.patch(SwitchStatsMixin, "queue_stats", "netsim.queue_stats")
    for owner in (FlowTableMixin, ShardedFluidNetwork):
        tracer.patch(owner, "start_flows", "netsim.start_flows")
    tracer.patch(PoissonTrafficGenerator, "generate", "traffic.generate")
    for owner in (PETController, StaticECNController):
        tracer.patch(owner, "decide", "core.decide", count_applied)
    tracer.patch(IPPOTrainer, "act", "rl.act", trainer_index)
    tracer.patch(IPPOTrainer, "update", "rl.update")
    tracer.patch(ControlPlane, "tick", "serve.tick")
    return trainers


# ------------------------------------------------------------ base classes
class Workload:
    """One workload instance: ``setup()`` → ``run()`` → ``results()``."""

    name = ""

    def __init__(self, seed: int, seconds: float,
                 tracer: Optional[Tracer] = None) -> None:
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        self.seed = int(seed)
        self.scale = seconds / NOMINAL_SECONDS
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: control ticks the ``ticks`` phase stands for (fixed by the sizes).
        self.units = 0
        #: host latency of every successful tick, in ms.
        self.tick_ms: List[float] = []
        #: measured phases (host-clock windows); ``ticks_per_s`` and the
        #: per-layer shares are over ``ticks``.
        self.phases: Dict[str, Window] = {}

    def _scaled(self, nominal: int, floor: int = 1) -> int:
        return max(floor, int(round(nominal * self.scale)))

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def fail(self, where: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{where}: {why}")

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def results(self) -> Dict[str, Any]:
        raise NotImplementedError

    def close(self) -> None:
        """Release threads/sockets/arenas the set-up opened."""


class _TickLoop(Workload):
    """A tick loop over one fluid fabric fed by Web Search Poisson traffic."""

    warm_nominal = 50
    timed_nominal = 900
    load = 0.6

    def __init__(self, seed: int, seconds: float,
                 tracer: Optional[Tracer] = None) -> None:
        super().__init__(seed, seconds, tracer)
        self.warm_ticks = self._scaled(self.warm_nominal, floor=6)
        self.ticks = self.units = self._scaled(self.timed_nominal, floor=10)
        self.net: Any = None
        self.flow_starts: List[float] = []
        self.sim_t0 = 0.0
        self._reset_samples()

    def _reset_samples(self) -> None:
        self.queue_sum = 0.0
        self.queue_ticks = 0
        self.active_sum = 0
        #: every ECN triple that reached the fabric, in order.
        self.applied: List[Tuple[str, int, int, float]] = []

    # -- building blocks ------------------------------------------------------
    def _make_network(self) -> Any:
        raise NotImplementedError

    def _loaded_network(self) -> Any:
        """The fabric with the whole run's traffic generated and started."""
        net = self._make_network()
        gen = PoissonTrafficGenerator(
            net.host_names(), workload_by_name("websearch"),
            rng=np.random.default_rng(self.seed + 1))
        flows = gen.generate(TrafficConfig(
            load=self.load, duration=(self.warm_ticks + self.ticks) * DT,
            host_rate_bps=net.config.host_rate_bps))
        net.start_flows(flows)
        self.flow_starts = sorted(f.start_time for f in flows)
        return net

    def _one_tick(self) -> Any:
        raise NotImplementedError

    def _observe(self, out: Any) -> Optional[str]:
        """Sample one finished tick; returns why it failed, if it did."""
        raise NotImplementedError

    def _observe_stats(self, stats: Dict[str, Any]) -> Optional[str]:
        avg = inst = 0.0
        for st in stats.values():
            avg += st.avg_qlen_bytes
            inst += st.qlen_bytes
        if not stats or not math.isfinite(avg + inst):
            return "non-finite queue statistics"
        self.queue_sum += avg / len(stats)
        self.queue_ticks += 1
        not_started = len(self.flow_starts) - bisect.bisect_right(
            self.flow_starts, self.net.now)
        self.active_sum += self.net.active_flow_count() - not_started
        return None

    def _observe_applied(self, switch: str, cfg: Any) -> Optional[str]:
        self.applied.append((switch, cfg.kmin_bytes, cfg.kmax_bytes,
                             cfg.pmax))
        if cfg.kmin_bytes > cfg.kmax_bytes or not config_in_bounds(cfg):
            return f"ECN out of bounds on {switch}: {cfg}"
        return None

    # -- the loop -------------------------------------------------------------
    def _warm_up(self) -> None:
        for _ in range(self.warm_ticks):
            self._one_tick()
        self.sim_t0 = self.net.now
        self._reset_samples()

    def run(self) -> None:
        tracer = self.tracer
        t_start = _clock()
        for i in range(self.ticks):
            if tracer:
                tracer.tick = i
            self.attempted += 1
            t0 = _clock()
            try:
                out = self._one_tick()
            except Exception as exc:   # noqa: BLE001 — a failed tick is counted
                self.fail(f"tick {i}", f"raised {type(exc).__name__}: {exc}")
            else:
                self.tick_ms.append((_clock() - t0) * 1e3)
                why = self._observe(out)
                if why:
                    self.fail(f"tick {i}", why)
        self.phases["ticks"] = (t_start, _clock())
        if tracer:
            tracer.tick = -1

    # -- results --------------------------------------------------------------
    def _state_bytes(self) -> int:
        raise NotImplementedError

    def _controller_states(self) -> Any:
        return None

    def results(self) -> Dict[str, Any]:
        net = self.net
        timed = [f for f in net.finished_flows if f.finish_time > self.sim_t0]
        fct = fct_statistics(timed, net.config.host_rate_bps,
                             net.config.base_rtt)["overall"]
        return {
            "fct_slowdown": fct.avg,
            "queue_kb": self.queue_sum / max(self.queue_ticks, 1) / 1e3,
            "flows": len(self.flow_starts),
            "flows_finished": fct.count,
            "total_drops": net.total_drops(),
            "active_flows_mean": self.active_sum / max(self.queue_ticks, 1),
            "flow_steps": self.active_sum * SUBSTEPS,
            "state_mb": self._state_bytes() / 1e6,
            "sim_fingerprint": fingerprint({
                "q_len": net.q_len,
                "finished": sorted((f.flow_id, f.finish_time)
                                   for f in net.finished_flows),
                "ecn": self.applied,
                "state": self._controller_states()}),
        }


def _fleet32_fabric() -> FluidConfig:
    """32 switches (24 leaves + 8 spines), 96 hosts, 10/40 Gbps."""
    return FluidConfig(n_spine=8, n_leaf=24, hosts_per_leaf=4,
                       host_rate_bps=10e9, spine_rate_bps=40e9)


class _SimLoop(_TickLoop):
    """advance → queue_stats → decide, driven by the harness."""

    controller: Any = None

    def _one_tick(self) -> Any:
        net = self.net
        net.advance(DT)
        stats = net.queue_stats()
        return stats, self.controller.decide(stats, net.now, net)

    def _observe(self, out: Any) -> Optional[str]:
        stats, applied = out
        why = self._observe_stats(stats)
        for switch, cfg in (applied or {}).items():
            why = self._observe_applied(switch, cfg) or why
        return why


# ------------------------------------------------------------ train_fleet32
class TrainFleet32(_SimLoop):
    """PET's online-training inner loop: 32 agents learning on a cheap fabric."""

    name = "train_fleet32"

    def _make_network(self) -> FluidNetwork:
        return FluidNetwork(_fleet32_fabric(), seed=self.seed)

    def setup(self) -> None:
        self.net = self._loaded_network()
        # --seed makes the traffic; the agents' initial weights are fixed
        self.controller = PETController(self.net.switch_names(),
                                        PETConfig.fast(seed=0))
        self.controller.set_training(True)
        self._warm_up()

    def _state_bytes(self) -> int:
        return self.net.flow_table_bytes()

    def _controller_states(self) -> Any:
        return self.controller.state_dict()


# ------------------------------------------------------------ fabric_xl
class FabricXL(_SimLoop):
    """The 10k-host fat-tree under steady arrivals and a static controller."""

    name = "fabric_xl"
    warm_nominal = 10
    #: 210 ticks keep ten samples beyond the p95 of a single run.
    timed_nominal = 210
    load = 0.05

    def _make_network(self) -> ShardedFluidNetwork:
        return ShardedFluidNetwork(FatTreeConfig.scale_xl(), shards=1,
                                   seed=self.seed)

    def setup(self) -> None:
        self.net = self._loaded_network()
        self.controller = secn1()
        self._warm_up()

    def _state_bytes(self) -> int:
        return sum(entry["queue_bytes"] + entry["flow_bytes"]
                   for entry in self.net.memory_report().values())

    def close(self) -> None:
        if self.net is not None:
            self.net.close()


# ------------------------------------------------------------ serve_fleet32
class ServeFleet32(_TickLoop):
    """``ControlPlane.tick()`` with pet0 acting and pet1 shadowing, then
    sequential requests over real loopback HTTP with the plane idle."""

    name = "serve_fleet32"
    #: 1000 ticks keep ten samples beyond the p99 of a single run.
    timed_nominal = 1000
    http_nominal = 200
    #: the manual override the POST /action requests apply (SECN1's triple).
    ACTION = {"switch": "*", "kmin_bytes": 5000, "kmax_bytes": 200000,
              "pmax": 0.01}

    def __init__(self, seed: int, seconds: float,
                 tracer: Optional[Tracer] = None) -> None:
        super().__init__(seed, seconds, tracer)
        self.http_requests = self._scaled(self.http_nominal, floor=4)
        self.plane: Any = None
        self.server: Any = None
        self.pets: List[PETController] = []
        self.http_ms: Dict[str, List[float]] = {"state": [], "action": []}
        self.http_failed = 0
        self.acting_pet = 0
        self._last_stats: Optional[Dict[str, Any]] = None
        self._bad_ecn: Optional[str] = None

    def _make_network(self) -> FluidNetwork:
        return FluidNetwork(_fleet32_fabric(), seed=self.seed)

    def _tapped_network(self) -> FluidNetwork:
        """The fabric, with the harness listening on its telemetry and
        actuator calls (``plane.tick()`` returns neither)."""
        net = self._loaded_network()
        queue_stats, set_ecn = net.queue_stats, net.set_ecn

        def tapped_stats() -> Dict[str, Any]:
            self._last_stats = queue_stats()
            return self._last_stats

        def tapped_set_ecn(switch: str, cfg: Any) -> None:
            self._bad_ecn = self._observe_applied(switch, cfg) or self._bad_ecn
            set_ecn(switch, cfg)

        # set_ecn_all goes through set_ecn, so one tap sees every write
        net.queue_stats = tapped_stats
        net.set_ecn = tapped_set_ecn
        return net

    def setup(self) -> None:
        shadow = max(1, self.warm_ticks // 5)
        canary = max(1, 2 * self.warm_ticks // 5)
        # Tolerances wide open and a generous decide budget: the workload
        # measures a steady plane, so no gate verdict or deadline may
        # change who acts during the timed ticks.
        gate = PromotionGate(GateConfig(
            min_shadow_ticks=shadow, canary_ticks=canary, eval_min_ticks=1,
            queue_tolerance=1e9, fct_tolerance=1e9, util_tolerance=1.0))
        self.plane = plane = ControlPlane(
            self._tapped_network,
            ServeConfig(delta_t=DT, decide_budget_s=5.0, reload_every_ticks=0),
            gate)
        self.net = plane.net
        # --seed makes the traffic; the two served models are fixed
        self.pets = [PETController(plane.switches, PETConfig.fast(seed=i))
                     for i in range(2)]
        plane.register("pet0", self.pets[0])
        plane.run_ticks(shadow)
        plane.promote("pet0")
        plane.run_ticks(canary)
        plane.register("pet1", self.pets[1])
        plane.run_ticks(self.warm_ticks - shadow - canary)
        stages = {r.name: r.stage for r in plane.registry.records.values()}
        if (plane.registry.incumbent_name != "pet0"
                or stages.get("pet1") != "shadow"):
            raise RuntimeError(f"lifecycle warm-through failed: {stages}")
        self.server = PolicyServer(plane).start()
        self.sim_t0 = self.net.now
        self._reset_samples()
        self._bad_ecn = None
        self._fallback0 = plane.applied_by["fallback"]
        self._breaches0 = plane.breaches_total

    def _one_tick(self) -> Any:
        return self.plane.tick()

    def _observe(self, out: Any) -> Optional[str]:
        stats, self._last_stats = self._last_stats, None
        if stats is None:
            return "telemetry read failed"
        why = self._observe_stats(stats)
        why, self._bad_ecn = self._bad_ecn or why, None
        if out["acting"] != "incumbent" or out["incumbent"] != "pet0":
            return f"action came from {out['acting']}/{out['incumbent']}"
        self.acting_pet += 1
        return why

    def run(self) -> None:
        super().run()
        host, port = self.server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        body = json.dumps(self.ACTION)
        t_start = _clock()
        try:
            for i in range(self.http_requests):
                kind = "state" if i % 2 == 0 else "action"
                self.attempted += 1
                t0 = _clock()
                try:
                    with self._span(f"serve.http_{kind}"):
                        if kind == "state":
                            conn.request("GET", "/state")
                        else:
                            conn.request("POST", "/action", body=body, headers={
                                "Content-Type": "application/json"})
                        reply = conn.getresponse()
                        reply.read()
                except (OSError, http.client.HTTPException) as exc:
                    self.http_failed += 1
                    self.fail(f"http {i}", f"raised {type(exc).__name__}")
                    conn.close()
                    continue
                if not 200 <= reply.status < 300:
                    self.http_failed += 1
                    self.fail(f"http {i}", f"status {reply.status}")
                    continue
                self.http_ms[kind].append((_clock() - t0) * 1e3)
        finally:
            conn.close()
        self.phases["http"] = (t_start, _clock())

    def _state_bytes(self) -> int:
        return self.net.flow_table_bytes()

    def _controller_states(self) -> Any:
        return [pet.state_dict() for pet in self.pets]

    def results(self) -> Dict[str, Any]:
        out = super().results()
        out.update({
            "fallback_ticks": (self.plane.applied_by["fallback"]
                               - self._fallback0),
            "deadline_misses": self.plane.breaches_total - self._breaches0,
            "acting_pet_share": self.acting_pet / max(self.ticks, 1),
            "switches": len(self.plane.switches),
            "http_failed": self.http_failed,
            "http_ms": self.http_ms,
        })
        return out

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        if self.plane is not None:
            self.plane.close()
        # plane.close() only tells its decider threads to exit; wait until
        # they have, so the next set-up starts with this one released.
        for thread in threading.enumerate():
            if thread.name.startswith("serve-"):
                thread.join(timeout=5.0)


# ------------------------------------------------------------ fig4_sweep
class Fig4Sweep(Workload):
    """One Fig. 4 row as the researcher runs it: pretrain → evaluate PET at
    three loads, the six static replicas as one batch, then PET again warm."""

    name = "fig4_sweep"
    LOADS = (0.3, 0.6, 0.8)
    STATIC = ("secn1", "secn2")

    def __init__(self, seed: int, seconds: float,
                 tracer: Optional[Tracer] = None) -> None:
        super().__init__(seed, seconds, tracer)
        self.pretrain = self._scaled(1000, floor=20)
        self.intervals = self._scaled(120, floor=6)
        # nominal intervals of the job list: three PET jobs, six static ones
        self.units = (len(self.LOADS) * (self.pretrain + self.intervals)
                      + len(self.STATIC) * len(self.LOADS) * self.intervals)
        self.configs: List[ScenarioConfig] = []
        self.cold: List[Any] = []
        self.warm: List[Any] = []
        self.grid: List[Any] = []
        self.grid_s = 0.0

    def _config(self, load: float) -> ScenarioConfig:
        # the benchmarks/conftest.py fabric: 64 hosts, 4 leaves, 2 spines
        return ScenarioConfig(
            workload="websearch", load=load, duration=self.intervals * DT,
            pretrain_intervals=self.pretrain, seed=7 + self.seed, incast=True,
            fluid=FluidConfig(n_spine=2, n_leaf=4, hosts_per_leaf=8,
                              host_rate_bps=10e9, spine_rate_bps=40e9))

    def setup(self) -> None:
        self.configs = [self._config(load) for load in self.LOADS]

    def _job(self, what: str, call: Callable[[], Any], n_results: int
             ) -> List[Any]:
        """Run one scenario call; a raise fails every job it stood for."""
        self.attempted += n_results
        try:
            with self._span(what):
                out = call()
        except Exception as exc:   # noqa: BLE001 — a failed job is counted
            self.failed += n_results - 1
            self.fail(what, f"raised {type(exc).__name__}: {exc}")
            return []
        results = out if isinstance(out, list) else [out]
        for r in results:
            if not (r.flows_finished > 0
                    and math.isfinite(r.fct["overall"].avg)
                    and math.isfinite(r.queue.mean_kb)):
                self.fail(what, f"{r.scheme}@{r.scenario.load}: "
                                "no finished flows or non-finite statistics")
        return results

    def _pet_pass(self) -> List[Any]:
        """The three PET jobs in turn.  The tick samples are the gaps
        between the ``on_interval`` callbacks of their measured runs."""
        results: List[Any] = []
        for cfg in self.configs:
            last = [0.0]

            def on_interval(i: int, now: float, stats: Dict) -> None:
                t = _clock()
                if i > 0:
                    self.tick_ms.append((t - last[0]) * 1e3)
                last[0] = t
            results += self._job(
                "analysis.run_scenario",
                lambda: run_scenario("pet", cfg, on_interval=on_interval), 1)
        return results

    def run(self) -> None:
        t_start = _clock()
        clear_pretrain_cache()
        self.cold = self._pet_pass()
        t_grid = _clock()
        jobs = [(scheme, cfg) for scheme in self.STATIC
                for cfg in self.configs]
        self.grid = self._job(
            "analysis.run_scenario_grid",
            lambda: run_scenario_grid(jobs, sim_batch=True), len(jobs))
        t_end = _clock()
        self.phases["ticks"] = (t_start, t_end)
        self.grid_s = t_end - t_grid
        # The warm pass re-runs the PET jobs on the now-filled pretrain
        # cache: evaluation alone, and it must reproduce the cold results.
        self.warm = self._pet_pass()
        self.phases["warm"] = (t_end, _clock())
        self.attempted += 1
        if self._digest(self.warm) != self._digest(self.cold):
            self.fail("warm pass", "results differ from the cold pass")

    @staticmethod
    def _digest(results: List[Any]) -> str:
        return fingerprint([[r.scheme, r.fct, r.queue, r.latency,
                             r.mean_utilization, r.flows_finished,
                             r.flows_total, r.queue_samples]
                            for r in results])

    def results(self) -> Dict[str, Any]:
        def mean(values: List[float]) -> float:
            return float(np.mean(values)) if values else float("nan")

        def seconds(phase: str) -> float:
            return self.phases[phase][1] - self.phases[phase][0]
        cold_s = seconds("ticks") - self.grid_s
        pet_fct = [r.fct["overall"].avg for r in self.cold]
        secn1_fct = [r.fct["overall"].avg for r in self.grid
                     if r.scheme == "secn1"]
        gain = float("nan")
        if pet_fct and len(pet_fct) == len(secn1_fct):
            gain = float(np.exp(np.mean(np.log(
                np.asarray(secn1_fct) / np.asarray(pet_fct)))))
        every = self.cold + self.grid
        return {
            "fct_slowdown": mean(pet_fct),
            # All nine jobs of the row: the three PET jobs alone move by a
            # quarter between seeds (120 evaluated intervals each).
            "queue_kb": mean([r.queue.mean_kb for r in every]),
            "pet_queue_kb": mean([r.queue.mean_kb for r in self.cold]),
            "flows": sum(r.flows_total for r in every),
            "flows_finished": sum(r.flows_finished for r in every),
            "total_drops": 0,
            "active_flows_mean": 0.0,
            "flow_steps": 0,
            "state_mb": 0.0,
            "grid_replica_ticks": len(self.grid) * self.intervals,
            "fct_gain_vs_secn1": gain,
            "timings": {"grid_s": self.grid_s,
                        "pretrain_s": cold_s - seconds("warm"),
                        "evaluate_s": seconds("warm")},
            "sim_fingerprint": self._digest(every),
        }


WORKLOADS = {cls.name: cls for cls in (TrainFleet32, FabricXL, ServeFleet32,
                                       Fig4Sweep)}


# ------------------------------------------------------------ metrics
def end_to_end_metrics(wl: Workload, sim: Dict[str, Any], *, setup_s: float,
                       peak_rss_mb: float, strict: bool) -> Dict[str, Any]:
    """The end-to-end metrics of one finished repetition: the timing ones
    over the whole timed window and every tick sample in it."""
    t0, t1 = wl.phases["ticks"]
    return {
        "ticks_per_s": wl.units / (t1 - t0),
        "tick_p50_ms": percentile(wl.tick_ms, 50),
        "tick_p95_ms": percentile(wl.tick_ms, 95, strict=strict),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "fct_slowdown": sim["fct_slowdown"],
        "queue_kb": sim["queue_kb"],
        "ok_share": 1.0 - wl.failed / max(wl.attempted, 1),
    }


def per_layer_metrics(wl: Workload, sim: Dict[str, Any], tracer: Tracer,
                      trainers: List[IPPOTrainer], *, calib_ms: float,
                      strict: bool) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (0 where a layer is idle).

    Shares are of the ``ticks`` phase, the wall ``ticks_per_s`` divides by;
    coverage and ``bench.unaccounted_s`` are over every measured phase.
    """
    ticks = [wl.phases["ticks"]]
    every = list(wl.phases.values())
    ticks_wall = ticks[0][1] - ticks[0][0]
    wall = sum(hi - lo for lo, hi in every)

    def p50(values: List[float]) -> float:
        return percentile(values, 50) if values else 0.0

    def p50_ms(durations: List[float]) -> float:
        return p50(durations) * 1e3

    def share(durations: List[float]) -> float:
        return sum(durations) / ticks_wall

    advance = tracer.durations("netsim.advance", ticks)
    queue_stats = tracer.durations("netsim.queue_stats", ticks)
    decide = tracer.durations("core.decide", ticks)
    decide_self = tracer.self_durations("core.decide", ticks)
    act = tracer.durations("rl.act", ticks)
    update = tracer.durations("rl.update", ticks)
    serve_self = tracer.self_durations("serve.tick", ticks)
    acted = tracer.counts("rl.act", ticks)
    is_stacked = [t.stacking_status()["stacked"] for t in trainers]
    stacked = sum(1 for i in acted if is_stacked[i])
    covered = tracer.top_level_total(every)
    http = sim.get("http_ms", {"state": [], "action": []})
    timings = sim.get("timings", {})
    is_serve = isinstance(wl, ServeFleet32)
    return {
        "tick_p95_ms": percentile(wl.tick_ms, 95, strict=strict),
        "netsim.advance_ms": p50_ms(advance),
        "netsim.advance_share": share(advance),
        "netsim.queue_stats_ms": p50_ms(queue_stats),
        "netsim.queue_stats_share": share(queue_stats),
        "netsim.flow_steps_per_s": (sim["flow_steps"] / sum(advance)
                                    if advance else 0.0),
        "netsim.active_flows_mean": sim["active_flows_mean"],
        "netsim.flows_finished": sim["flows_finished"],
        "netsim.total_drops": sim["total_drops"],
        "netsim.state_mb": sim["state_mb"],
        "netsim.start_flows_s": sum(tracer.durations("netsim.start_flows")),
        "netsim.batch_grid_s": timings.get("grid_s", 0.0),
        "netsim.batch_replica_ticks_per_s": (
            sim["grid_replica_ticks"] / timings["grid_s"]
            if timings.get("grid_s") else 0.0),
        "traffic.generate_s": sum(tracer.durations("traffic.generate")),
        "traffic.flows": sim["flows"],
        "core.decide_ms": p50_ms(decide),
        "core.decide_share": share(decide),
        "core.decide_self_ms": p50_ms(decide_self),
        "core.ecn_reconfigs": sum(tracer.counts("core.decide", ticks)),
        "rl.act_ms": p50_ms(act),
        "rl.stacked_share": stacked / len(acted) if acted else 0.0,
        "rl.update_ms": p50_ms(update),
        "rl.update_share": share(update),
        "rl.updates": len(update),
        "serve.tick_self_ms": p50_ms(serve_self),
        "serve.tick_self_share": share(serve_self),
        "serve.tick_p99_ms": (percentile(wl.tick_ms, 99, strict=strict)
                              if is_serve else 0.0),
        "serve.decisions_per_s": (sim["switches"] * wl.ticks / ticks_wall
                                  if is_serve else 0.0),
        "serve.fallback_ticks": sim.get("fallback_ticks", 0),
        "serve.deadline_misses": sim.get("deadline_misses", 0),
        "serve.acting_pet_share": sim.get("acting_pet_share", 0.0),
        "serve.http_state_ms": p50(http["state"]),
        "serve.http_action_ms": p50(http["action"]),
        "serve.http_failed": sim.get("http_failed", 0),
        "analysis.pretrain_s": timings.get("pretrain_s", 0.0),
        "analysis.evaluate_s": timings.get("evaluate_s", 0.0),
        "analysis.fct_gain_vs_secn1": sim.get("fct_gain_vs_secn1", 0.0),
        "analysis.pet_queue_kb": sim.get("pet_queue_kb", 0.0),
        "bench.trace_coverage": covered / wall,
        "bench.unaccounted_s": wall - covered,
        "bench.trace_overhead_pct": (100.0 * tracer.count(every)
                                     * proxy_cost_s() / wall),
        "bench.calib_ms": calib_ms,
    }
