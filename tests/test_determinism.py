"""Determinism regression: same seed => byte-identical simulation output.

The credibility of every figure reproduction rests on the simulator
being a deterministic function of its seed (docs/API.md documents the
guarantee).  Two independent, freshly constructed runs with the same
seed must agree bit-for-bit on flow completion times and queue traces;
a different seed must not.
"""

import dataclasses
import pickle

import numpy as np

from repro.fingerprint import fingerprint
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.network import PacketNetwork
from repro.netsim.topology import TopologyConfig
from repro.traffic.generator import PoissonTrafficGenerator, TrafficConfig
from repro.traffic.workloads import WEB_SEARCH


def _packet_run(seed, duration=0.01, intervals=10):
    """One full packet-level run: returns (fct list, queue trace)."""
    net = PacketNetwork(TopologyConfig(n_spine=2, n_leaf=2, hosts_per_leaf=2),
                        transport="dcqcn", seed=seed)
    rng = np.random.default_rng(seed + 17)
    gen = PoissonTrafficGenerator(net.host_names(), WEB_SEARCH, rng=rng)
    flows = gen.generate(TrafficConfig(load=0.5, duration=duration,
                                       host_rate_bps=10e9))
    net.start_flows(flows)
    trace = []
    for _ in range(intervals):
        net.advance(duration / intervals)
        stats = net.queue_stats()
        trace.append(sorted((name, s.qlen_bytes, s.tx_bytes, s.dropped_pkts)
                            for name, s in stats.items()))
    fcts = sorted((f.flow_id, f.start_time, f.finish_time)
                  for f in net.finished_flows)
    return fcts, trace


def _fluid_run(seed, intervals=20):
    net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2),
                       seed=seed)
    hosts = net.host_names()
    net.start_flows([Flow(i, hosts[i % 2], hosts[2 + i % 2], 50_000,
                          start_time=i * 1e-4) for i in range(6)])
    trace = []
    for _ in range(intervals):
        net.advance(1e-3)
        stats = net.queue_stats()
        trace.append(sorted((name, s.qlen_bytes, s.tx_bytes)
                            for name, s in stats.items()))
    return trace


class TestPacketLevelDeterminism:
    def test_same_seed_byte_identical(self):
        r1 = _packet_run(seed=123)
        r2 = _packet_run(seed=123)
        assert pickle.dumps(r1) == pickle.dumps(r2)

    def test_fct_lists_exactly_equal(self):
        fcts1, trace1 = _packet_run(seed=7)
        fcts2, trace2 = _packet_run(seed=7)
        assert fcts1, "run produced no finished flows — broaden the scenario"
        assert fcts1 == fcts2          # exact float equality, not approx
        assert trace1 == trace2

    def test_different_seed_differs(self):
        fcts1, _ = _packet_run(seed=7)
        fcts2, _ = _packet_run(seed=8)
        assert fcts1 != fcts2

    def test_default_construction_is_deterministic(self):
        # PacketNetwork defaults to seed=0 (not wall-clock entropy).
        n1 = PacketNetwork(TopologyConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2))
        n2 = PacketNetwork(TopologyConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2))
        for i in range(6):
            f = Flow(i, f"h{i % 2}", f"h{2 + i % 2}", 30_000,
                     start_time=i * 1e-4)
            n1.start_flow(Flow(**f.__dict__))
            n2.start_flow(Flow(**f.__dict__))
        n1.advance(0.01)
        n2.advance(0.01)
        assert sorted((f.flow_id, f.finish_time) for f in n1.finished_flows) \
            == sorted((f.flow_id, f.finish_time) for f in n2.finished_flows)


class TestFluidDeterminism:
    def test_same_seed_byte_identical(self):
        assert pickle.dumps(_fluid_run(3)) == pickle.dumps(_fluid_run(3))


class TestComponentDeterminism:
    """Seeded-fallback regression: components constructed without an rng
    must be deterministic (they used to draw from OS entropy)."""

    def test_default_marker_streams_are_reproducible(self):
        from repro.netsim.ecn import ECNConfig, ECNMarker
        m1 = ECNMarker(ECNConfig(0, 1000, 1.0))
        m2 = ECNMarker(ECNConfig(0, 1000, 1.0))
        d1 = [m1.should_mark(300) for _ in range(200)]
        d2 = [m2.should_mark(300) for _ in range(200)]
        assert d1 == d2

    def test_default_mlp_init_is_reproducible(self):
        from repro.rl.nn import MLP
        w1 = MLP([4, 8, 2]).parameters()
        w2 = MLP([4, 8, 2]).parameters()
        assert w1.keys() == w2.keys()
        assert all(np.array_equal(w1[k], w2[k]) for k in w1)


# ----------------------------------------------------- parallel engine
class TestParallelTrainingDeterminism:
    """PET jobs through ``run_scenario_grid`` in process (pretrained as
    one batch) and over two workers (each paying its own pretraining)
    must agree bit for bit — the engine's core acceptance criterion
    (docs/PARALLEL.md)."""

    @staticmethod
    def _jobs(seeds):
        from repro.analysis.experiments import ScenarioConfig
        return [("pet", ScenarioConfig(
            duration=0.01, pretrain_intervals=40, seed=s, load=0.5,
            incast=False, pet={"update_interval": 5},
            fluid=FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                              host_rate_bps=10e9, spine_rate_bps=40e9)))
            for s in seeds]

    def test_pet_grid_workers1_vs_workers2_identical(self):
        from repro.analysis.experiments import (clear_pretrain_cache,
                                                run_scenario_grid)
        jobs = self._jobs((123, 124))
        clear_pretrain_cache()
        local = run_scenario_grid(jobs, workers=1)
        clear_pretrain_cache()
        fanned = run_scenario_grid(jobs, workers=2)
        assert [r.scheme for r in fanned] == ["pet", "pet"]
        assert fingerprint(local[0]) != fingerprint(local[1])
        assert fingerprint(local) == fingerprint(fanned)

    def test_scenario_matrix_workers1_vs_workers2_identical(self):
        """``run_scenario`` with the incast generator on — a scheme × seed
        figure matrix — through the engine serially and across workers."""
        from repro.analysis.experiments import ScenarioConfig, run_scenario
        from repro.parallel.engine import Engine, TaskSpec

        def specs():
            out = []
            for i, seed in enumerate((0, 1)):
                cfg = ScenarioConfig(
                    duration=0.02, pretrain_intervals=0, seed=seed,
                    incast=True, incast_fan_in=2,
                    fluid=FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                      host_rate_bps=10e9,
                                      spine_rate_bps=40e9))
                out.append(TaskSpec(task_id=i, fn=run_scenario,
                                    args=("secn1", cfg), seed=seed))
            return out

        serial = Engine(workers=1).run(specs()).values(strict=True)
        fanned = Engine(workers=2).run(specs()).values(strict=True)
        assert len(serial) == 2
        assert fingerprint(serial[0]) != fingerprint(serial[1])
        assert fingerprint(serial) == fingerprint(fanned)

    def test_different_seed_trains_a_different_model(self):
        import repro.analysis.experiments as ex
        jobs = self._jobs((1, 2))
        ex.clear_pretrain_cache()
        ex.run_scenario_grid(jobs)
        states = [ex._PRETRAIN_CACHE[ex._pretrain_key(
            s, c, ex._default_pet_config(c))] for s, c in jobs]
        ex.clear_pretrain_cache()
        assert fingerprint(states[0]) != fingerprint(states[1])


# ----------------------------------------------------- the digest itself
@dataclasses.dataclass
class _Record:
    name: str
    x: float
    arr: np.ndarray


def test_fingerprint_bytes_are_frozen():
    """Every ``_PINNED`` literal in this suite and the benchmark's
    per-seed ``sim_fingerprint`` are sha256 over exactly these bytes:
    dict keys in ``repr`` order (non-str keys included), dataclasses as
    dicts, sequences bracketed, arrays as dtype + shape + C-order data.
    Digest captured at commit 1252d4f (``repro.parallel.perfbench``)."""
    value = {
        3: "three", "a": (1, 2.5, None), (1, 2): [True, False],
        "rec": _Record("r", 0.1, np.arange(6, dtype=np.int64).reshape(2, 3)),
        "f": np.linspace(0.0, 1.0, 5, dtype=np.float64),
        "b": np.array([True, False, True]),
        "nc": np.arange(12, dtype=np.float64).reshape(3, 4).T[::2],
    }
    assert not value["nc"].flags["C_CONTIGUOUS"]      # nor in C memory order
    assert fingerprint(value) == \
        "0dcec423b49993b77ebc156b5bf5c7837e4355590c5665b39a4b34b514108414"
    # order of a sequence matters, order of dict insertion does not
    assert fingerprint({"x": 1, "y": 2}) == fingerprint({"y": 2, "x": 1})
    assert fingerprint([1, 2]) != fingerprint([2, 1])
