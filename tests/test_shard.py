"""Sharded fat-tree fluid simulator (repro.netsim.shard).

The conformance gate for the spatial-decomposition contract:
``shards=N`` must be **bit-identical** to ``shards=1`` — same canonical
fingerprint over interval stats and final state — for any shard count,
for the Engine-parallel path, at production scale (>= 64 switches), and
under mid-run uplink failures.  Plus the splitmix64 routing regression
(PET007: builtin ``hash()`` is salt-dependent across interpreter runs)
and Hypothesis properties: the boundary exchange conserves
bytes-in-flight, and failure/reroute behaviour agrees sharded vs
monolithic.

Self-reference (N vs 1) cannot see both legs drift together, so the
suite also pins fingerprint literals captured from the per-pod
implementation the fused step replaced, and checks the flow phase
against a plain-Python-loop oracle written here, not in ``src/``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.ecn import ECNConfig
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.flow import Flow
from repro.netsim.routing import ecmp_hash, splitmix64
from repro.netsim.shard import ShardedFluidNetwork
from repro.fingerprint import fingerprint


# ------------------------------------------------------------- helpers
def _small():
    return FatTreeConfig.small()


def _load(net, cfg, n_flows=40, seed=5, spread=2e-3, hot=0):
    """Random flows; ``hot`` > 0 draws every destination from that many
    hosts (incast), so several pods feed the same queues and the order
    in which their partial sums are merged reaches the bits."""
    rng = np.random.default_rng(seed)
    hot_dsts = rng.choice(cfg.n_hosts, size=hot, replace=False)
    flows = []
    for i in range(n_flows):
        if hot:
            dst = rng.choice(hot_dsts)
            src = (dst + rng.integers(1, cfg.n_hosts)) % cfg.n_hosts
        else:
            src, dst = rng.choice(cfg.n_hosts, size=2, replace=False)
        flows.append(Flow(i, f"h{src}", f"h{dst}",
                          int(rng.integers(50_000, 2_000_000)),
                          start_time=float(rng.uniform(0, spread))))
    net.start_flows(flows)


def _run_fp(cfg, shards, *, steps=150, n_flows=40, engine=None,
            fail_at=None, seed=3, hot=0):
    """Canonical fingerprint of a driven run: per-interval stats plus the
    final queue/flow state."""
    net = ShardedFluidNetwork(cfg, shards=shards, seed=seed, engine=engine)
    net.set_ecn_all(ECNConfig(kmin_bytes=20_000, kmax_bytes=80_000,
                              pmax=0.2))
    _load(net, cfg, n_flows=n_flows, hot=hot)
    stats = []
    for k in range(steps):
        net._step(cfg.step_dt)
        if fail_at is not None and k == fail_at:
            net.fail_uplinks(0.25, rng=np.random.default_rng(99))
        if (k + 1) % 50 == 0:
            stats.append(net.queue_stats())
    flows = net.flow_table_state()
    return fingerprint({"stats": stats, "q_len": net.q_len.copy(),
                         "rates": flows["f_rate"], "paths": flows["f_path"],
                         "alpha": flows["f_alpha"],
                         "finished": [(f.flow_id, f.finish_time)
                                      for f in net.finished_flows]})


# ------------------------------------------------------------- routing
class TestSplitmix64Routing:
    """Pinned values: the ECMP mix must never drift (and must never be
    the builtin, interpreter-salted ``hash()`` it replaced)."""

    def test_splitmix64_known_values(self):
        # reference outputs of the splitmix64 finalizer
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1
        assert splitmix64(1234567) == splitmix64(1234567)

    def test_ecmp_hash_pinned_choices(self):
        # regression pin: flow->path choices are part of every committed
        # fingerprint, so these exact values are load-bearing
        assert [ecmp_hash(f, 4) for f in range(8)] == [3, 1, 2, 1, 2, 2, 0, 3]
        assert ecmp_hash(1234567, 7) == splitmix64(1234567) % 7

    def test_ecmp_hash_is_uniform_enough(self):
        counts = np.bincount([ecmp_hash(f, 8) for f in range(4096)],
                             minlength=8)
        assert counts.min() > 0.7 * 4096 / 8

    def test_ecmp_hash_rejects_empty_choice_set(self):
        with pytest.raises(ValueError):
            ecmp_hash(1, 0)


# ------------------------------------------------------- conformance gate
class TestShardConformance:
    def test_shard_counts_are_bit_identical_small(self):
        cfg = _small()
        fps = {s: _run_fp(cfg, s) for s in (1, 2, 3)}
        assert fps[2] == fps[1] and fps[3] == fps[1]

    def test_shard4_bit_identical_at_production_scale(self):
        """The acceptance gate: a >=64-switch fat-tree, shards=4 vs 1."""
        cfg = FatTreeConfig.production_scale()
        assert cfg.n_switches >= 64
        fp1 = _run_fp(cfg, 1, steps=40, n_flows=120)
        fp4 = _run_fp(cfg, 4, steps=40, n_flows=120)
        assert fp4 == fp1

    def test_engine_parallel_path_is_bit_identical(self):
        from repro.parallel.engine import Engine
        cfg = _small()
        fp_inproc = _run_fp(cfg, 1)
        fp_engine = _run_fp(cfg, 3, engine=Engine(workers=2))
        assert fp_engine == fp_inproc

    def test_engine_arena_and_pickle_fallback_are_bit_identical(self):
        """The zero-copy arena and the pickled-payload fallback are two
        transports for the same bits: closing the arena mid-construction
        degrades to pickling without changing a single fingerprint."""
        from repro.parallel.engine import Engine, SharedArena
        if not SharedArena.available():   # pragma: no cover
            pytest.skip("multiprocessing.shared_memory unavailable")
        cfg = _small()
        engine = Engine(workers=2)

        arena_net = ShardedFluidNetwork(cfg, shards=3, seed=3,
                                        engine=engine)
        assert arena_net._arena is not None
        fallback_net = ShardedFluidNetwork(cfg, shards=3, seed=3,
                                           engine=engine)
        fallback_net.close()              # forces the pickle path
        assert fallback_net._arena is None

        fps = []
        for net in (arena_net, fallback_net):
            net.set_ecn_all(ECNConfig(kmin_bytes=20_000, kmax_bytes=80_000,
                                      pmax=0.2))
            _load(net, cfg, n_flows=40)
            for _ in range(60):
                net._step(cfg.step_dt)
            fps.append(fingerprint({"q": net.q_len.copy(),
                                     **net.flow_table_state()}))
        arena_net.close()
        assert fps[0] == fps[1]

    def test_bit_identical_through_midrun_failures(self):
        cfg = _small()
        fp1 = _run_fp(cfg, 1, fail_at=40)
        fp3 = _run_fp(cfg, 3, fail_at=40)
        assert fp3 == fp1

    def test_subdomain_partition_is_shard_count_independent(self):
        cfg = _small()
        a = ShardedFluidNetwork(cfg, shards=1, seed=0)
        b = ShardedFluidNetwork(cfg, shards=3, seed=0)
        assert [(s.name, s.start, s.stop) for s in a.subdomains] == \
               [(s.name, s.start, s.stop) for s in b.subdomains]
        assert sum(len(g) for g in b.shard_groups) == len(b.subdomains)


#: ``_run_fp`` digests of the per-pod ``FlowShard._flow_phase`` /
#: ``_feedback_phase`` implementation (captured at commit 64f8b13, the
#: parent of the fused step).  A drift here is a behaviour change even
#: if every shards=N run still agrees with shards=1.
_PINNED = {
    "small": "1e5d0965b8d92901d37cb949889c48904c5918420a6c2ac77f179ea9b4f1336e",
    "production_scale":
        "ea8551206a9982193391d82dc2c60deb2fae54790e4e643c7138dc13fc42d3d9",
    "midrun_failures":
        "f54802d1a6681e0d3c1551d1725c1322eb120ff76b058d58c818c42c13d8061e",
    "incast": "ac5c3e0a998574f91d931c17c54d188ad0b7f6219d35c355444b81cdf0aa21b9",
}


class TestPinnedFingerprints:
    def test_small(self):
        assert _run_fp(_small(), 1) == _PINNED["small"]

    def test_production_scale(self):
        assert _run_fp(FatTreeConfig.production_scale(), 1, steps=40,
                       n_flows=120) == _PINNED["production_scale"]

    def test_midrun_fail_uplinks(self):
        assert _run_fp(_small(), 1, fail_at=40) == _PINNED["midrun_failures"]

    def test_four_pod_incast(self):
        """The one digest here that moves when the per-pod partial sums
        are merged in another order (the random loads above do not)."""
        assert _run_fp(FatTreeConfig(), 1, steps=100, n_flows=60,
                       hot=3) == _PINNED["incast"]

    def test_growth_from_four_slots(self):
        """Capacity is storage, not state: a table that starts at four
        slots and regrows mid-run lands on the same digest."""
        cfg = dataclasses.replace(_small(), initial_flow_capacity=4)
        assert _run_fp(cfg, 1) == _PINNED["small"]


class TestStackedFlowTable:
    def test_one_pod_overflowing_regrows_and_repoints_every_pod(self):
        """Pod 0 takes 30 flows into 4 slots while pod 1 holds two: the
        stacked storage regrows for all pods, every pod's arrays stay
        views of it, and the run matches one that never had to grow."""
        def run(capacity):
            cfg = dataclasses.replace(_small(), initial_flow_capacity=capacity)
            net = ShardedFluidNetwork(cfg, seed=0)
            rng = np.random.default_rng(11)
            hpp = cfg.hosts_per_pod
            flows = [Flow(i, f"h{rng.integers(hpp) if i < 30 else hpp}",
                          f"h{rng.integers(hpp, 2 * hpp) if i < 30 else 0}",
                          int(rng.integers(200_000, 2_000_000)),
                          start_time=float(rng.uniform(0, 1e-3)))
                     for i in range(32)]
            net.start_flows(flows)
            for _ in range(80):
                net._step(cfg.step_dt)
            return net

        grown, roomy = run(4), run(256)
        assert grown._f_active.shape[1] > 4
        assert roomy._f_active.shape[1] == 256
        assert grown.flow_shards[0]._n_flows > 4 >= \
            grown.flow_shards[1]._n_flows > 0
        for net in (grown, roomy):
            report = net.memory_report()
            for p, sh in enumerate(net.flow_shards):
                assert sh._cap_flows == net._f_active.shape[1]
                for name in ("f_src", "f_rate", "f_active", "f_core",
                             "f_path"):
                    assert np.shares_memory(getattr(sh, name),
                                            getattr(net, "_" + name))
                    assert len(getattr(sh, name)) == sh._cap_flows
                assert sh.flow_table_bytes() == \
                    report[f"pod{p}"]["flow_bytes"]
        assert [(f.flow_id, f.finish_time) for f in grown.finished_flows] \
            == [(f.flow_id, f.finish_time) for f in roomy.finished_flows]
        assert fingerprint({"q": grown.q_len, **grown.flow_table_state()}) \
            == fingerprint({"q": roomy.q_len, **roomy.flow_table_state()})


# ------------------------------------------------------------- surface
class TestShardedNetworkSurface:
    def test_queue_inventory(self):
        cfg = _small()
        net = ShardedFluidNetwork(cfg, seed=0)
        per_pod = (cfg.hosts_per_pod
                   + cfg.edge_per_pod * cfg.agg_per_pod
                   + cfg.agg_per_pod * cfg.core_per_agg
                   + cfg.agg_per_pod * cfg.edge_per_pod)
        assert net.n_queues == cfg.n_pods * per_pod + cfg.n_core * cfg.n_pods
        assert len(net.switch_names()) == cfg.n_switches
        # every queue belongs to a valid switch
        assert net.q_switch.min() >= 0
        assert net.q_switch.max() == cfg.n_switches - 1

    def test_switch_id_roundtrip_and_keyerror(self):
        net = ShardedFluidNetwork(_small(), seed=0)
        for s, name in enumerate(net.switch_names()):
            assert net._switch_id(name) == s
        for bad in ("pod9.edge0", "pod0.edge9", "core99", "leaf0",
                    "pod0.eggs1", "podX.edge0"):
            with pytest.raises(KeyError, match="unknown switch"):
                net._switch_id(bad)

    def test_unknown_host_raises(self):
        net = ShardedFluidNetwork(_small(), seed=0)
        with pytest.raises(ValueError, match="unknown host"):
            net.start_flow(Flow(0, "h999", "h0", 1000))
        with pytest.raises(ValueError, match="unknown host"):
            net.start_flow(Flow(1, "nope", "h0", 1000))

    def test_shards_validation(self):
        cfg = _small()    # 3 subdomains
        with pytest.raises(ValueError):
            ShardedFluidNetwork(cfg, shards=0)
        with pytest.raises(ValueError, match="subdomains"):
            ShardedFluidNetwork(cfg, shards=4)

    def test_memory_report_covers_every_subdomain(self):
        net = ShardedFluidNetwork(_small(), shards=2, seed=0)
        rep = net.memory_report()
        assert set(rep) == {"pod0", "pod1", "core"}
        assert all(v["queue_bytes"] > 0 for v in rep.values())
        # flow tables live on the pods; the core plane owns no flows
        assert rep["pod0"]["flow_bytes"] > 0
        assert rep["pod1"]["flow_bytes"] > 0
        assert rep["core"]["flow_bytes"] == 0
        assert rep["pod0"]["flow_bytes"] == \
            net.flow_shards[0].flow_table_bytes()
        # attribution must add up to the whole fabric's queue state
        total_queues = sum(len(s) for s in net.subdomains)
        assert total_queues == net.n_queues

    def test_flow_ownership_follows_source_pod(self):
        cfg = _small()
        net = ShardedFluidNetwork(cfg, shards=2, seed=0)
        # h0 lives in pod0, h4 (second half) in pod1
        lo, hi = 0, cfg.hosts_per_pod
        net.start_flow(Flow(0, f"h{lo}", f"h{hi}", 10_000))
        net.start_flow(Flow(1, f"h{hi}", f"h{lo}", 10_000))
        net.advance(cfg.step_dt)
        assert net.flow_shards[0]._n_flows == 1
        assert net.flow_shards[1]._n_flows == 1
        assert int(net.flow_shards[0].f_src[0]) == lo
        assert int(net.flow_shards[1].f_src[0]) == hi
        # both flows cross pods: each pod emitted boundary aggregates
        assert net._last_boundary_rows > 0

    def test_set_ecn_reaches_only_that_switch(self):
        net = ShardedFluidNetwork(_small(), seed=0)
        net.set_ecn("pod1.agg0", ECNConfig(kmin_bytes=111, kmax_bytes=222,
                                           pmax=0.5))
        qs = net.switch_queue_indices("pod1.agg0")
        assert (net.kmin[qs] == 111).all()
        others = np.setdiff1d(np.arange(net.n_queues), qs)
        assert not (net.kmin[others] == 111).any()

    def test_control_loop_runs_on_sharded_substrate(self):
        from repro.baselines.static_ecn import secn1
        from repro.core.training import run_control_loop
        net = ShardedFluidNetwork(_small(), shards=2, seed=0)
        _load(net, _small(), n_flows=10)
        res = run_control_loop(net, secn1(), intervals=5, delta_t=1e-3)
        assert len(res.reward_trace) == 5

    def test_run_scenario_on_fluid_shard_substrate(self):
        from repro.analysis.experiments import ScenarioConfig, run_scenario
        cfg = ScenarioConfig(simulator="fluid_shard", fattree=_small(),
                             shards=2, duration=0.01, pretrain_intervals=0,
                             incast=False, load=0.3)
        res = run_scenario("secn1", cfg)
        assert res.flows_total > 0
        assert res.fct["overall"].count == res.flows_finished > 0


# ------------------------------------------------------------- properties
@settings(max_examples=12, deadline=None)
@given(shards=st.integers(1, 3),
       n_flows=st.integers(1, 30),
       seed=st.integers(0, 2**16))
def test_boundary_exchange_conserves_bytes_in_flight(shards, n_flows, seed):
    """Stepping through subdomain boundaries never creates or destroys
    buffered bytes: at every step the sharded run's total bytes-in-flight
    equals the monolithic run's, and what sits buffered can never exceed
    what the sources actually injected (offered minus still-unsent)."""
    cfg = _small()
    mono = ShardedFluidNetwork(cfg, shards=1, seed=0)
    shard = ShardedFluidNetwork(cfg, shards=shards, seed=0)
    for net in (mono, shard):
        _load(net, cfg, n_flows=n_flows, seed=seed, spread=1e-3)
    injected_cap = sum(f.size_bytes for f in mono.flow_objs.values())
    for _ in range(60):
        mono._step(cfg.step_dt)
        shard._step(cfg.step_dt)
        assert shard.bytes_in_flight() == mono.bytes_in_flight()
        assert 0.0 <= shard.bytes_in_flight() <= injected_cap


def _flow_phase_oracle(net):
    """Per-flow send rates and the per-queue arrival vector, rebuilt with
    plain Python loops from the per-pod tables.

    NIC sharing caps each host's summed rate at line rate; arrivals are
    summed per (owner pod, queue) over flows in (pod, hop, slot) order,
    then merged into each queue with its own pod's sum first and the
    other pods' after it in pod order.
    """
    cfg = net.config
    line = cfg.host_rate_bps / 8.0
    active = [[i for i in range(sh._n_flows) if sh.f_active[i]]
              for sh in net.flow_shards]
    per_host = {}
    for sh, slots in zip(net.flow_shards, active):
        for i in slots:
            src = int(sh.f_src[i])
            per_host[src] = per_host.get(src, 0.0) + float(sh.f_rate[i])
    send, partial = [], {}
    for p, (sh, slots) in enumerate(zip(net.flow_shards, active)):
        sends = []
        for i in slots:
            rate, total = float(sh.f_rate[i]), per_host[int(sh.f_src[i])]
            sends.append(rate * (line / total) if total > line else rate)
        for hop in range(sh.f_path.shape[1]):
            for i, w in zip(slots, sends):
                q = int(sh.f_path[i, hop])
                if q >= 0:
                    partial[p, q] = partial.get((p, q), 0.0) + w
        send.extend(sends)
    arrival = []
    for q in range(net.n_queues):
        own = q // net._pod_block            # the core plane owns no flows
        total = partial.get((own, q), 0.0)
        for p in range(cfg.n_pods):
            if p != own and (p, q) in partial:
                total += partial[p, q]
        arrival.append(total)
    return np.array(send), np.array(arrival)


@settings(max_examples=20, deadline=None)
@given(n_flows=st.integers(1, 40),
       seed=st.integers(0, 2**16),
       steps=st.integers(1, 80),
       hot=st.sampled_from([0, 3]))
def test_flow_phase_matches_plain_loop_oracle(n_flows, seed, steps, hot):
    """The fused NIC-sharing + arrival reduction against an oracle the
    code did not write: bit-for-bit, not approximately.  Four pods, low
    marking thresholds and incast, so AIMD has made the rates inexact
    and queues are fed from three or more pods — merging their partial
    sums in any other order shows in about a third of the draws."""
    cfg = FatTreeConfig()
    net = ShardedFluidNetwork(cfg, seed=0)
    net.set_ecn_all(ECNConfig(kmin_bytes=20_000, kmax_bytes=80_000,
                              pmax=0.2))
    _load(net, cfg, n_flows=n_flows, seed=seed, spread=1e-3, hot=hot)
    for _ in range(steps):
        net._step(cfg.step_dt)
    want_send, want_arrival = _flow_phase_oracle(net)
    n = max(sh._n_flows for sh in net.flow_shards)
    pods, slots = net._f_active[:, :n].nonzero()
    send = net._flow_phase(pods, slots, net._f_path[pods, slots].T)
    assert send.tobytes() == want_send.tobytes()
    assert net._arrival.tobytes() == want_arrival.tobytes()
    line = cfg.host_rate_bps / 8.0
    per_host = np.bincount(net._f_src[pods, slots], weights=send,
                           minlength=cfg.n_hosts)
    assert (per_host <= line * (1 + 1e-12)).all()


@settings(max_examples=10, deadline=None)
@given(fraction=st.floats(0.1, 0.9),
       fail_seed=st.integers(0, 2**16),
       shards=st.integers(2, 3))
def test_failure_reroute_agrees_sharded_vs_monolithic(fraction, fail_seed,
                                                      shards):
    """``fail_uplinks`` + the mid-run ``_route`` recompute must pick the
    same links and the same replacement paths whether the fabric is
    stepped monolithically or sharded."""
    cfg = _small()
    nets = [ShardedFluidNetwork(cfg, shards=s, seed=0) for s in (1, shards)]
    for net in nets:
        _load(net, cfg, n_flows=25, seed=7, spread=5e-4)
        for _ in range(20):
            net._step(cfg.step_dt)
        killed = net.fail_uplinks(fraction,
                                  rng=np.random.default_rng(fail_seed))
        assert killed >= 1
        for _ in range(20):
            net._step(cfg.step_dt)
    mono, shard = nets
    assert (mono.uplink_up == shard.uplink_up).all()
    mf, sf = mono.flow_table_state(), shard.flow_table_state()
    assert len(mf["f_src"]) == len(sf["f_src"])
    assert (mf["f_path"] == sf["f_path"]).all()
    assert (mf["f_core"] == sf["f_core"]).all()
    # no active flow may still traverse a dead uplink — unless its pod
    # pair has no commonly-live core at all (partitioned; old path kept)
    for i in np.flatnonzero(mf["f_active"]):
        c = int(mf["f_core"][i])
        if c < 0:
            continue
        ps = cfg.pod_of_host(int(mf["f_src"][i]))
        pd = cfg.pod_of_host(int(mf["f_dst"][i]))
        if not (mono.uplink_up[ps] & mono.uplink_up[pd]).any():
            continue
        assert mono.uplink_up[ps, c] and mono.uplink_up[pd, c]


@settings(max_examples=8, deadline=None)
@given(shards=st.sampled_from([1, 2, 4]),
       n_flows=st.integers(4, 30),
       seed=st.integers(0, 2**16),
       fail_fraction=st.floats(0.1, 0.6))
def test_sharded_flow_tables_survive_divergence_and_reroutes(
        shards, n_flows, seed, fail_fraction):
    """The ISSUE-10 acceptance property: with the flow table itself
    sharded per pod, every shard count conserves bytes-in-flight against
    the monolithic run step for step, stays fingerprint-bit-identical
    through mid-run ``set_ecn`` divergence *and* ``fail_uplinks``
    reroutes, and a reroute may migrate a flow's core but never its
    owner pod."""
    cfg = FatTreeConfig(n_pods=4, edge_per_pod=1, agg_per_pod=2,
                        core_per_agg=1, hosts_per_edge=2,
                        host_rate_bps=10e9, agg_rate_bps=40e9,
                        core_rate_bps=40e9)   # 5 subdomains: shards<=5
    mono = ShardedFluidNetwork(cfg, shards=1, seed=0)
    shard = ShardedFluidNetwork(cfg, shards=shards, seed=0)
    for net in (mono, shard):
        _load(net, cfg, n_flows=n_flows, seed=seed, spread=1e-3)
    owner_before = {fid: cfg.owner_pod_of_flow(int(f.src[1:]))
                    for fid, f in shard.flow_objs.items()}
    for k in range(60):
        if k == 20:   # mid-run per-switch divergence
            for net in (mono, shard):
                net.set_ecn("pod1.agg0", ECNConfig(kmin_bytes=5_000,
                                                   kmax_bytes=30_000,
                                                   pmax=0.9))
        if k == 30:   # mid-run failure + reroute
            for net in (mono, shard):
                killed = net.fail_uplinks(
                    fail_fraction, rng=np.random.default_rng(seed + 1))
                assert killed >= 1
        mono._step(cfg.step_dt)
        shard._step(cfg.step_dt)
        assert shard.bytes_in_flight() == mono.bytes_in_flight()
    mf, sf = mono.flow_table_state(), shard.flow_table_state()
    assert fingerprint({"q": shard.q_len.copy(), **sf}) == \
        fingerprint({"q": mono.q_len.copy(), **mf})
    # ownership is immutable: every flow is still in its source pod's
    # table (the reroute may have changed f_core, never the shard)
    for p, sh in enumerate(shard.flow_shards):
        for idx, fid in sh._idx_to_fid.items():
            assert owner_before[fid] == p
            assert cfg.owner_pod_of_flow(int(sh.f_src[idx])) == p
