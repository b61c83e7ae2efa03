"""The column-built generators against plain per-flow reference loops.

``PoissonTrafficGenerator.generate`` and ``IncastGenerator.generate``
build their flows from whole columns.  The references below construct
one ``Flow`` per loop iteration, converting one NumPy scalar at a time;
both must give the same flows, field by field and type by type, from the
same draws, leaving the generator's RNG in the same state.
"""

import numpy as np
import pytest

from repro.netsim.flow import Flow
from repro.traffic.generator import PoissonTrafficGenerator, TrafficConfig
from repro.traffic.incast import IncastConfig, IncastGenerator
from repro.traffic.patterns import PatternSchedule, PatternSegment
from repro.traffic.workloads import workload_by_name

HOSTS = [f"h{i}" for i in range(12)]
FIELDS = ("flow_id", "src", "dst", "size_bytes", "start_time", "tag")


def ref_poisson(gen, cfg):
    """One segment of Poisson arrivals, one Flow per loop iteration."""
    lam = gen.arrival_rate(cfg)
    expected = lam * cfg.duration
    n_guess = int(expected + 6 * np.sqrt(expected + 1)) + 8
    gaps = gen.rng.exponential(1.0 / lam, size=n_guess)
    times = np.cumsum(gaps)
    while times.size and times[-1] < cfg.duration:
        more = gen.rng.exponential(1.0 / lam, size=max(n_guess // 4, 8))
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    times = times[times < cfg.duration]
    n = times.size
    sizes = np.maximum(gen.workload.sample(gen.rng, n), cfg.min_size)
    flows = []
    n_hosts = len(gen.hosts)
    srcs = gen.rng.integers(n_hosts, size=n)
    offs = gen.rng.integers(1, n_hosts, size=n)
    dsts = (srcs + offs) % n_hosts
    tag = cfg.tag or gen.workload.name
    for t, size, s, d in zip(times, sizes, srcs, dsts):
        flows.append(Flow(flow_id=gen._next_id, src=gen.hosts[int(s)],
                          dst=gen.hosts[int(d)], size_bytes=int(size),
                          start_time=cfg.start_time + float(t), tag=tag))
        gen._next_id += 1
    return flows


def ref_incast(gen, cfg, aggregator=None):
    """All incast rounds, rebuilding the worker list every round."""
    fan_in = min(cfg.fan_in, len(gen.hosts) - 1)
    flows = []
    t = cfg.start_time
    end = cfg.start_time + cfg.duration
    while t < end:
        agg = aggregator or gen.hosts[int(gen.rng.integers(len(gen.hosts)))]
        workers = [h for h in gen.hosts if h != agg]
        chosen = gen.rng.choice(len(workers), size=fan_in, replace=False)
        for w in np.atleast_1d(chosen):
            jit = (gen.rng.uniform(-cfg.jitter, cfg.jitter)
                   if cfg.jitter > 0 else 0.0)
            flows.append(Flow(flow_id=gen._next_id, src=workers[int(w)],
                              dst=agg, size_bytes=cfg.response_bytes,
                              start_time=max(t + jit, cfg.start_time),
                              tag=cfg.tag))
            gen._next_id += 1
        t += cfg.period
    return flows


def rows(flows):
    """Every compared field with its Python type."""
    return [tuple((getattr(f, k), type(getattr(f, k))) for k in FIELDS)
            for f in flows]


def assert_same(new, ref, new_gen, ref_gen):
    assert new and rows(new) == rows(ref)
    assert new_gen.next_flow_id() == ref_gen.next_flow_id()
    assert new_gen.rng.bit_generator.state == ref_gen.rng.bit_generator.state


def poisson_pair(seed, first_flow_id=0, workload="websearch"):
    return [PoissonTrafficGenerator(HOSTS, workload_by_name(workload),
                                    rng=np.random.default_rng(seed),
                                    first_flow_id=first_flow_id)
            for _ in range(2)]


class TestPoissonColumns:
    @pytest.mark.parametrize("cfg", [
        TrafficConfig(load=0.5, duration=0.02, host_rate_bps=1e9),
        TrafficConfig(load=0.8, duration=0.01, host_rate_bps=1e9,
                      start_time=0.125),
        TrafficConfig(load=0.5, duration=0.02, host_rate_bps=1e9,
                      min_size=50_000),
        TrafficConfig(load=0.3, duration=0.02, host_rate_bps=25e9,
                      start_time=1.5, tag="background"),
    ], ids=["default-tag", "start-offset", "min-size-floor", "explicit-tag"])
    def test_matches_per_flow_loop(self, cfg):
        new, ref = poisson_pair(seed=4, first_flow_id=7)
        assert_same(new.generate(cfg), ref_poisson(ref, cfg), new, ref)

    def test_min_size_floor_binds(self):
        new, ref = poisson_pair(seed=5)
        cfg = TrafficConfig(load=0.5, duration=0.02, host_rate_bps=1e9,
                            min_size=50_000)
        flows = new.generate(cfg)
        assert_same(flows, ref_poisson(ref, cfg), new, ref)
        assert sum(f.size_bytes == 50_000 for f in flows) > 0

    def test_successive_calls_continue_ids_and_stream(self):
        new, ref = poisson_pair(seed=6, workload="datamining")
        for start in (0.0, 0.01):
            cfg = TrafficConfig(load=0.6, duration=0.01, host_rate_bps=100e9,
                                start_time=start)
            assert_same(new.generate(cfg), ref_poisson(ref, cfg), new, ref)

    def test_tuple_names_are_the_hosts_own_objects(self):
        """Sources and destinations are the host name objects themselves,
        a tuple name included, as the per-flow loop's indexing gives."""
        hosts = [("leaf", i // 4, i % 4) for i in range(12)]
        new, ref = [PoissonTrafficGenerator(
            hosts, workload_by_name("websearch"),
            rng=np.random.default_rng(9)) for _ in range(2)]
        cfg = TrafficConfig(load=0.5, duration=0.02, host_rate_bps=1e9)
        flows = new.generate(cfg)
        assert_same(flows, ref_poisson(ref, cfg), new, ref)
        own = {id(h) for h in hosts}
        assert all(id(f.src) in own and id(f.dst) in own for f in flows)


class TestPatternColumns:
    def test_two_segment_schedule(self):
        sched = PatternSchedule([PatternSegment("websearch", 0.0, 0.02, 0.5),
                                 PatternSegment("datamining", 0.02, 0.03, 0.7)])
        rng_new, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
        new = sched.generate_flows(HOSTS, 1e9, rng=rng_new)
        ref_gen = PoissonTrafficGenerator(HOSTS, workload_by_name("websearch"),
                                          rng=rng_ref)
        ref = []
        for seg in sched.segments:
            ref_gen.workload = workload_by_name(seg.workload)
            ref += ref_poisson(ref_gen, TrafficConfig(
                load=seg.load, duration=seg.duration, host_rate_bps=1e9,
                start_time=seg.start_time, tag=seg.workload))
        assert new and rows(new) == rows(ref)
        assert {f.tag for f in new} == {"websearch", "datamining"}
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestIncastColumns:
    @pytest.mark.parametrize("aggregator", [None, "h0", "h5", "h11"])
    @pytest.mark.parametrize("jitter", [0.0, 2e-4])
    def test_matches_per_flow_loop(self, aggregator, jitter):
        new, ref = [IncastGenerator(HOSTS, rng=np.random.default_rng(9),
                                    first_flow_id=3) for _ in range(2)]
        cfg = IncastConfig(fan_in=5, response_bytes=32_000, period=1e-3,
                           duration=7e-3, start_time=0.002, jitter=jitter)
        assert_same(new.generate(cfg, aggregator),
                    ref_incast(ref, cfg, aggregator), new, ref)

    def test_jitter_clipped_at_segment_start(self):
        new, ref = [IncastGenerator(HOSTS, rng=np.random.default_rng(10))
                    for _ in range(2)]
        cfg = IncastConfig(fan_in=11, response_bytes=1000, period=1e-3,
                           duration=3e-3, start_time=0.5, jitter=5e-4)
        flows = new.generate(cfg)
        assert_same(flows, ref_incast(ref, cfg), new, ref)
        assert any(f.start_time == 0.5 for f in flows)

    def test_empty_window_draws_nothing(self):
        gen = IncastGenerator(HOSTS, rng=np.random.default_rng(11))
        before = gen.rng.bit_generator.state
        cfg = IncastConfig(duration=1e-3, start_time=float("inf"))
        assert gen.generate(cfg) == []
        assert gen.rng.bit_generator.state == before

    def test_unknown_aggregator_rejected(self):
        gen = IncastGenerator(HOSTS, rng=np.random.default_rng(12))
        with pytest.raises(ValueError, match="aggregator"):
            gen.generate(IncastConfig(fan_in=3), aggregator="h99")
        assert gen.next_flow_id() == 0
