"""End-to-end telemetry contracts.

Two acceptance properties of the observability PR:

1. ``python -m repro trace`` produces a JSONL trace whose spans cover
   every instrumented layer — control loop, simulator, PET pipeline,
   RL update, fault events — plus the metrics summary.
2. Telemetry is *zero-overhead when disabled*: a pretraining run is
   bit-identical (``repro.fingerprint``) whether it executes before,
   during, or after an enabled-telemetry run.
"""

from functools import partial

import numpy as np
import pytest

import repro.obs as obs
from repro.core.config import PETConfig
from repro.core.training import pretrain_offline_multi
from repro.fingerprint import fingerprint
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.obs.cli import trace_main
from repro.obs.export import OBS_SCHEMA, read_jsonl
from repro.traffic.generator import PoissonTrafficGenerator, TrafficConfig
from repro.traffic.workloads import workload_by_name


@pytest.fixture(autouse=True)
def _null_telemetry():
    obs.disable()
    yield
    obs.disable()


class TestTraceCLI:
    def test_trace_smoke_covers_all_layers(self, tmp_path):
        out = str(tmp_path / "trace.jsonl")
        csv = str(tmp_path / "trace.csv")
        rc = trace_main(["--scenario", "websearch", "--seed", "0",
                         "--duration", "0.05", "--out", out, "--csv", csv])
        assert rc == 0

        meta, spans, metrics = read_jsonl(out)
        assert meta["schema"] == OBS_SCHEMA
        assert meta["scheme"] == "pet" and meta["chaos"] is True

        names = {s.name for s in spans}
        # control loop + simulator + PET pipeline + RL update all covered
        assert {"loop.tick", "net.advance", "net.queue_stats",
                "controller.decide", "pet.ingest", "pet.act",
                "ppo.update"} <= names
        # chaos faults ride the same bus as events
        assert any(n.startswith("fault.") for n in names)
        assert any(s.name == "ecn.reconfig" and s.kind == "event"
                   for s in spans)

        assert metrics["loop.intervals"]["value"] == meta["intervals"]
        assert metrics["netsim.advance_calls{sim=fluid}"]["value"] > 0
        assert metrics["pet.decide_intervals"]["value"] > 0
        assert metrics["ppo.updates"]["value"] > 0
        assert any(series.startswith("faults{") for series in metrics)

        with open(csv) as f:
            assert f.readline().startswith("seq,type,name")
        # the CLI must hand back the null defaults when it is done
        assert not obs.enabled()

    def test_no_chaos_run_has_no_fault_events(self, tmp_path):
        out = str(tmp_path / "trace.jsonl")
        rc = trace_main(["--scheme", "secn1", "--duration", "0.01",
                         "--no-chaos", "--out", out])
        assert rc == 0
        _, spans, _ = read_jsonl(out)
        assert not any(s.name.startswith("fault.") for s in spans)
        assert any(s.name == "loop.tick" for s in spans)


def _train_network(seed, duration, load):
    """Traffic-loaded trainer fabric for ``pretrain_offline_multi``."""
    fabric = FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                         host_rate_bps=10e9, spine_rate_bps=40e9)
    net = FluidNetwork(fabric, seed=seed)
    gen = PoissonTrafficGenerator(net.host_names(),
                                  workload_by_name("websearch"),
                                  rng=np.random.default_rng(seed + 1))
    net.start_flows(gen.generate(TrafficConfig(
        load=load, duration=duration, host_rate_bps=fabric.host_rate_bps,
        start_time=0.0)))
    return net


def _tiny_pretrain():
    """A short, seeded offline pretraining run (the acceptance workload)."""
    make = partial(_train_network, 3, duration=0.03, load=0.4)
    return pretrain_offline_multi(make, PETConfig(seed=3), episodes=1,
                                  intervals_per_episode=30)


class TestZeroOverheadWhenDisabled:
    def test_pretrain_fingerprint_unaffected_by_telemetry(self):
        """The overhead guard: enabling the full bus must not perturb a
        single bit of the training result — telemetry never touches an
        RNG stream or a control-flow decision."""
        baseline = fingerprint(_tiny_pretrain())
        with obs.telemetry() as (reg, tracer):
            traced = fingerprint(_tiny_pretrain())
            # the instrumented layers really did collect during the run
            assert reg.counter_value("loop.intervals") > 0
            assert reg.counter_value("netsim.advance_calls", sim="fluid") > 0
            assert len(tracer.by_name("loop.tick")) > 0
        after = fingerprint(_tiny_pretrain())
        assert baseline == traced
        assert baseline == after


class TestSimLabels:
    def test_stats_counters_carry_the_substrates_own_label(self):
        """``queue_stats`` / ``set_ecn`` live on a mixin shared by every
        fluid substrate; their counters must carry the label the owning
        class's ``advance`` reports, not the mixin author's."""
        from repro.netsim.ecn import ECNConfig
        from repro.netsim.fattree import FatTreeConfig
        from repro.netsim.fluid import FluidConfig, FluidNetwork
        from repro.netsim.shard import ShardedFluidNetwork
        with obs.telemetry() as (reg, _):
            nets = {"fluid": FluidNetwork(FluidConfig.small(), seed=0),
                    "fluid_shard": ShardedFluidNetwork(FatTreeConfig.small(),
                                                       seed=0)}
            for net in nets.values():
                net.advance(net.config.step_dt)
                net.queue_stats()
                net.set_ecn(net.switch_names()[0], ECNConfig(1000, 2000, 0.1))
            for label in nets:
                for counter in ("netsim.advance_calls",
                                "netsim.stats_collections", "netsim.ecn_set"):
                    assert reg.counter_value(counter, sim=label) == 1, \
                        (counter, label)
