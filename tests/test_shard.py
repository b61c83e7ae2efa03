"""Fat-tree fluid simulator (repro.netsim.shard).

What holds the fat-tree step in place: fingerprint literals captured
from the per-pod implementation the fused step replaced, a flow-phase
oracle written here as plain Python loops (not in ``src/``), and
single-run invariants under Hypothesis — buffered bytes never exceed
what the sources injected, no active flow crosses a dead uplink, a
reroute never moves a flow to another pod's table — plus one
metamorphic relation the code did not write: pods that own no flow are
inert.  Also the splitmix64 routing regression (PET007: builtin
``hash()`` is salt-dependent across interpreter runs).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.ecn import ECNConfig
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import flow_phase
from repro.netsim.routing import ecmp_hash, splitmix64
from repro.netsim import fluid as fluid_mod
from repro.netsim.shard import ShardedFluidNetwork
from repro.fingerprint import fingerprint
from tests.owner_tables import flow_table_state, owner_tables


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


def _run_fp(cfg, *, steps=150, n_flows=40, fail_at=None, seed=3, hot=0):
    """Canonical fingerprint of a driven run: per-interval stats plus the
    final queue/flow state."""
    net = ShardedFluidNetwork(cfg, seed=seed)
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
    flows = flow_table_state(net)
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


# ------------------------------------------------------- pinned digests
#: ``_run_fp`` digests of the per-pod ``FlowShard._flow_phase`` /
#: ``_feedback_phase`` implementation (captured at commit 64f8b13, the
#: parent of the fused step).  A drift here is a behaviour change.
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
        assert _run_fp(_small()) == _PINNED["small"]

    def test_production_scale(self):
        assert _run_fp(FatTreeConfig.production_scale(), steps=40,
                       n_flows=120) == _PINNED["production_scale"]

    def test_midrun_fail_uplinks(self):
        assert _run_fp(_small(), fail_at=40) == _PINNED["midrun_failures"]

    def test_four_pod_incast(self):
        """The one digest here that moves when the per-pod partial sums
        are merged in another order (the random loads above do not)."""
        assert _run_fp(FatTreeConfig(), steps=100, n_flows=60,
                       hot=3) == _PINNED["incast"]

    def test_growth_from_four_slots(self):
        """Capacity is storage, not state: a table that starts at four
        slots and regrows mid-run lands on the same digest."""
        cfg = dataclasses.replace(_small(), initial_flow_capacity=4)
        assert _run_fp(cfg) == _PINNED["small"]


#: the arrays ``memory_report()`` must account for, named here and not
#: taken from ``src/``
_PER_QUEUE = ("q_len", "q_cap", "q_cap_nominal", "kmin", "kmax", "pmax",
              "_acc_tx", "_acc_marked", "_acc_qlen_area", "_acc_drops",
              "q_switch", "_qmap", "_first_seen")
#: ... and the columns of its flow table
_PER_FLOW = ("f_src", "f_dst", "f_size", "f_remaining", "f_rate",
             "f_alpha", "f_active", "f_core", "f_path", "f_fid")


def _report_totals(net):
    report = net.memory_report()
    return (sum(e["queue_bytes"] for e in report.values()),
            sum(e["flow_bytes"] for e in report.values()))


class TestStackedFlowTable:
    def test_one_pod_overflowing_regrows_and_repoints_every_pod(self):
        """Pod 0 takes 30 flows into 4 slots while pod 1 holds two: the
        stacked storage regrows for all pods at once, and the run matches
        one that never had to grow."""
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
        assert grown._table.cap > 4
        assert roomy._table.cap == 256
        assert grown._table.n_flows[0] > 4 >= grown._table.n_flows[1] > 0
        for net in (grown, roomy):
            for name in _PER_FLOW:
                assert net._table.rows(name).shape[:2] == (2, net._table.cap)
        assert [(f.flow_id, f.finish_time) for f in grown.finished_flows] \
            == [(f.flow_id, f.finish_time) for f in roomy.finished_flows]
        assert fingerprint({"q": grown.q_len, **flow_table_state(grown)}) \
            == fingerprint({"q": roomy.q_len, **flow_table_state(roomy)})

    def test_short_flows_leave_no_bookkeeping_behind(self):
        """Several hundred short flows through a 16-slot table: what is
        kept per slot tracks the live flows, not the flows ever started
        (the solo twin: ``tests/test_fluid.py``)."""
        cfg = dataclasses.replace(_small(), initial_flow_capacity=16)
        net = ShardedFluidNetwork(cfg, seed=0)
        hpp, fid = cfg.hosts_per_pod, 0
        for wave in range(40):
            flows = []
            for k in range(10):
                src = (wave + k) % cfg.n_hosts
                flows.append(Flow(fid, f"h{src}", f"h{(src + hpp) % cfg.n_hosts}",
                                  20_000, start_time=net.now))
                fid += 1
            net.start_flows(flows)
            net.advance(2e-3)       # each wave finishes before the next
        net.start_flows([Flow(fid + k, f"h{k}", f"h{k + hpp}", 10**9,
                              start_time=net.now) for k in range(3)])
        net.advance(cfg.step_dt)
        assert len(net.finished_flows) == 400
        assert net._table.cap == 16
        live = int(net._table.f_active.sum())
        assert live == 3
        assert sum(len(t.fid_at) for t in owner_tables(net)) == live
        assert sum(t.n_flows - len(t.free) for t in owner_tables(net)) == live
        # nothing but the caller-visible flow record grows with history
        assert {k for k, v in vars(net).items()
                if isinstance(v, dict) and len(v) > 16} == {"flow_objs"}


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
        """``shards`` is kept for the frozen harness' ``shards=1`` only."""
        cfg = _small()
        for bad in (0, 2, cfg.n_pods + 2):
            with pytest.raises(ValueError, match="shards"):
                ShardedFluidNetwork(cfg, shards=bad)
        one, omitted = (ShardedFluidNetwork(cfg, shards=1, seed=0),
                        ShardedFluidNetwork(cfg, seed=0))
        for name in _PER_QUEUE:
            assert getattr(one, name).tobytes() == \
                getattr(omitted, name).tobytes()
        assert one.memory_report() == omitted.memory_report()
        assert one.close() is None              # a no-op the harness calls

    def test_memory_report_covers_every_subdomain(self):
        """Per pod block / core plane, and in total exactly the bytes of
        the arrays the network holds — before and after a forced growth."""
        cfg = dataclasses.replace(_small(), initial_flow_capacity=4)
        net = ShardedFluidNetwork(cfg, seed=0)
        rep = net.memory_report()
        assert set(rep) == {"pod0", "pod1", "core"}
        assert all(v["queue_bytes"] > 0 for v in rep.values())
        # flow tables live on the pods; the core plane owns no flows
        assert rep["pod0"]["flow_bytes"] == rep["pod1"]["flow_bytes"] > 0
        assert rep["core"]["flow_bytes"] == 0

        def held():
            return (sum(getattr(net, n).nbytes for n in _PER_QUEUE),
                    sum(getattr(net._table, n).nbytes for n in _PER_FLOW))

        before = held()
        assert _report_totals(net) == before
        flows = [Flow(i, "h0", f"h{cfg.hosts_per_pod}", 10**8)
                 for i in range(9)]
        net.start_flows(flows[:4])
        net.advance(cfg.step_dt)
        assert _report_totals(net) == before    # exactly full: no growth
        net.start_flows(flows[4:])
        net.advance(cfg.step_dt)
        assert net._table.cap == 16
        queues, flows = held()
        assert _report_totals(net) == (queues, flows)
        assert queues == before[0] and flows == 4 * before[1]

    def test_flow_ownership_follows_source_pod(self):
        cfg = _small()
        net = ShardedFluidNetwork(cfg, seed=0)
        # h0 lives in pod0, h4 (second half) in pod1
        lo, hi = 0, cfg.hosts_per_pod
        net.start_flow(Flow(0, f"h{lo}", f"h{hi}", 10_000))
        net.start_flow(Flow(1, f"h{hi}", f"h{lo}", 10_000))
        net.advance(cfg.step_dt)
        assert net._table.n_flows == [1, 1]
        assert net._table.rows("f_src")[:, 0].tolist() == [lo, hi]
        assert net._table.rows("f_fid")[:, 0].tolist() == [0, 1]
        # both flows cross pods: each reached its remote edge-down queue
        for dst in (hi, lo):
            q = net._q_edge_down(cfg.pod_of_host(dst), dst % cfg.hosts_per_pod)
            assert net._acc_tx[q] > 0

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
        net = ShardedFluidNetwork(_small(), seed=0)
        _load(net, _small(), n_flows=10)
        res = run_control_loop(net, secn1(), intervals=5, delta_t=1e-3)
        assert len(res.reward_trace) == 5

    def test_run_scenario_on_fluid_shard_substrate(self):
        from repro.analysis.experiments import ScenarioConfig, run_scenario
        cfg = ScenarioConfig(simulator="fluid_shard", fattree=_small(),
                             duration=0.01, pretrain_intervals=0,
                             incast=False, load=0.3)
        res = run_scenario("secn1", cfg)
        assert res.flows_total > 0
        assert res.fct["overall"].count == res.flows_finished > 0


# ------------------------------------------------------------- properties
@settings(max_examples=12, deadline=None)
@given(n_flows=st.integers(1, 30),
       seed=st.integers(0, 2**16))
def test_boundary_exchange_conserves_bytes_in_flight(n_flows, seed):
    """Merging per-pod sums across pod boundaries never creates buffered
    bytes: at every step what sits in the queues is non-negative and can
    never exceed what the sources were given to inject."""
    cfg = _small()
    net = ShardedFluidNetwork(cfg, seed=0)
    _load(net, cfg, n_flows=n_flows, seed=seed, spread=1e-3)
    injected_cap = sum(f.size_bytes for f in net.flow_objs.values())
    for _ in range(60):
        net._step(cfg.step_dt)
        assert 0.0 <= net.bytes_in_flight() <= injected_cap


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
    tables = owner_tables(net)
    active = [[i for i in range(sh.n_flows) if sh.f_active[i]]
              for sh in tables]
    per_host = {}
    for sh, slots in zip(tables, active):
        for i in slots:
            src = int(sh.f_src[i])
            per_host[src] = per_host.get(src, 0.0) + float(sh.f_rate[i])
    send, partial = [], {}
    for p, (sh, slots) in enumerate(zip(tables, active)):
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
    tab, line = net._table, cfg.host_rate_bps / 8.0
    at = tab.active(net._owners)
    path = tab.f_path[at].T
    send, arrival, on_path = flow_phase(
        tab.f_src[at], tab.f_rate[at], path, line, cfg.n_hosts,
        net.n_queues, owners=(at // tab.cap, net._first_seen))
    assert send.tobytes() == want_send.tobytes()
    assert arrival.tobytes() == want_arrival.tobytes()
    assert on_path.tolist() == [q for hop in path for q in hop if q >= 0]
    assert (net._first_seen == np.iinfo(np.int32).max).all()   # reset
    per_host = np.bincount(tab.f_src[at], weights=send,
                           minlength=cfg.n_hosts)
    assert (per_host <= line * (1 + 1e-12)).all()


#: fabrics for the routing fact: the test shapes and five pods of scale_xl
_ROUTING_SHAPES = {
    "small": FatTreeConfig.small(),
    "four_pod": FatTreeConfig(),
    "production_scale": FatTreeConfig.production_scale(),
    "scale_xl_5pod": dataclasses.replace(FatTreeConfig.scale_xl(), n_pods=5),
}


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from(sorted(_ROUTING_SHAPES)),
       fail=st.sampled_from([None, 0.3, 0.9]),
       n_flows=st.integers(20, 120), seed=st.integers(0, 2**16))
def test_other_pods_reach_a_queue_at_one_hop_after_its_own(shape, fail,
                                                           n_flows, seed):
    """The routing fact the flow phase's first-appearance merge rests on:
    for every queue, the hops at which other pods' flows reach it are one
    value, later than the first hop of the queue's own pod's flows.  Read
    from the active paths with plain loops, after a ``fail_uplinks``
    reroute (0.9 leaves pod pairs partitioned) and on flows routed after
    it."""
    cfg = _ROUTING_SHAPES[shape]
    net = ShardedFluidNetwork(cfg, seed=0)
    _load(net, cfg, n_flows=n_flows, seed=seed, spread=0.0)
    net._step(cfg.step_dt)
    if fail is not None:
        net.fail_uplinks(fail, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    net.start_flows([Flow(n_flows + i, f"h{s}", f"h{(s + o) % cfg.n_hosts}",
                          10**8, start_time=net.now)
                     for i, (s, o) in enumerate(zip(
                         rng.integers(cfg.n_hosts, size=n_flows),
                         rng.integers(1, cfg.n_hosts, size=n_flows)))])
    net._step(cfg.step_dt)
    own_hops, other_hops = {}, {}
    for pod, tab in enumerate(owner_tables(net)):
        for i in tab.fid_at:
            for hop, q in enumerate(tab.f_path[i].tolist()):
                if q >= 0:
                    own = q // net._pod_block == pod
                    (own_hops if own else other_hops).setdefault(
                        q, set()).add(hop)
    assert other_hops
    for q, hops in other_hops.items():
        assert len(hops) == 1, (q, hops)
        if q in own_hops:
            assert min(own_hops[q]) < min(hops), (q, own_hops[q], hops)


def _assert_no_active_flow_on_a_dead_uplink(net):
    """Every active inter-pod flow's core is up at both ends — unless
    its pod pair has no commonly-live core at all (partitioned: the old
    path is kept)."""
    cfg, table = net.config, flow_table_state(net)
    for i in np.flatnonzero(table["f_active"]):
        c = int(table["f_core"][i])
        if c < 0:
            continue
        ps = cfg.pod_of_host(int(table["f_src"][i]))
        pd = cfg.pod_of_host(int(table["f_dst"][i]))
        if (net.uplink_up[ps] & net.uplink_up[pd]).any():
            assert net.uplink_up[ps, c] and net.uplink_up[pd, c]


@settings(max_examples=10, deadline=None)
@given(fraction=st.floats(0.1, 0.9),
       fail_seed=st.integers(0, 2**16))
def test_failure_reroute_agrees_sharded_vs_monolithic(fraction, fail_seed):
    """After ``fail_uplinks`` and the mid-run reroute, and 20 steps on,
    no active flow traverses a dead uplink.  (The name is from when this
    also ran a second, differently grouped network beside the first.)"""
    cfg = _small()
    net = ShardedFluidNetwork(cfg, seed=0)
    _load(net, cfg, n_flows=25, seed=7, spread=5e-4)
    for _ in range(20):
        net._step(cfg.step_dt)
    assert net.fail_uplinks(fraction,
                            rng=np.random.default_rng(fail_seed)) >= 1
    _assert_no_active_flow_on_a_dead_uplink(net)
    for _ in range(20):
        net._step(cfg.step_dt)
    _assert_no_active_flow_on_a_dead_uplink(net)


def _owners_and_cores(net):
    """``{flow id: (owner pod, core)}`` of the flows in the table."""
    return {fid: (p, int(tab.f_core[i]))
            for p, tab in enumerate(owner_tables(net))
            for i, fid in tab.fid_at.items()}


@settings(max_examples=8, deadline=None)
@given(n_flows=st.integers(4, 30),
       seed=st.integers(0, 2**16),
       fail_fraction=st.floats(0.1, 0.6))
def test_sharded_flow_tables_survive_divergence_and_reroutes(
        n_flows, seed, fail_fraction):
    """Through mid-run ``set_ecn`` divergence and ``fail_uplinks``
    reroutes on a four-pod fabric: buffered bytes stay within what was
    injected at every step, and a reroute may change a flow's core but
    never the pod whose table holds it."""
    cfg = FatTreeConfig(n_pods=4, edge_per_pod=1, agg_per_pod=2,
                        core_per_agg=1, hosts_per_edge=2,
                        host_rate_bps=10e9, agg_rate_bps=40e9,
                        core_rate_bps=40e9)
    net = ShardedFluidNetwork(cfg, seed=0)
    _load(net, cfg, n_flows=n_flows, seed=seed, spread=1e-3)
    owner = {fid: int(cfg.owner_pod_of_flow(int(f.src[1:])))
             for fid, f in net.flow_objs.items()}
    injected_cap = sum(f.size_bytes for f in net.flow_objs.values())
    for k in range(60):
        if k == 20:   # mid-run per-switch divergence
            net.set_ecn("pod1.agg0", ECNConfig(kmin_bytes=5_000,
                                               kmax_bytes=30_000, pmax=0.9))
        if k == 30:   # mid-run failure + reroute
            before = _owners_and_cores(net)
            assert net.fail_uplinks(
                fail_fraction, rng=np.random.default_rng(seed + 1)) >= 1
            after = _owners_and_cores(net)
            assert after.keys() == before.keys()
            for fid, (pod, core) in after.items():
                assert pod == before[fid][0]
                if core != before[fid][1]:      # rerouted
                    assert net.uplink_up[pod, core]
        net._step(cfg.step_dt)
        assert 0.0 <= net.bytes_in_flight() <= injected_cap
    # ownership is immutable: every flow is still in its source pod's row
    for p, tab in enumerate(owner_tables(net)):
        for idx, fid in tab.fid_at.items():
            assert owner[fid] == p
            assert cfg.owner_pod_of_flow(int(tab.f_src[idx])) == p


# ------------------------------------------------------------- live queues
def _block_state(q):
    return {name: getattr(q, name).copy() for name in
            ("q_len", "_acc_tx", "_acc_marked", "_acc_qlen_area", "_acc_drops")}


def test_integration_work_follows_live_queues(monkeypatch):
    """Every ``advance`` steps one block of exactly the queues that hold
    bytes when it opens or lie on the path of a flow active at any of its
    sub-steps — counted here with plain loops over the pod tables — and a
    block queue that is not live at a sub-step (empty and on no active
    path) leaves it with ``q_len == 0.0`` and bit-unchanged accumulators.
    Windows of 1 to 20 sub-steps, through an incast whose flows finish
    while their queues still drain (a window holds that backlog though no
    flow crosses it), and an empty block once the fabric has drained."""
    cfg = FatTreeConfig.production_scale()
    net = ShardedFluidNetwork(cfg, seed=0)
    _load(net, cfg, n_flows=60, spread=1e-3, hot=3)
    # seven equal flows into h0 from its edge neighbours finish on the
    # same step, with h0's queue still deep
    net.start_flows([Flow(100 + k, f"h{k}", "h0", 200_000)
                     for k in range(1, cfg.hosts_per_edge)])
    windows = []
    open_window, close_window = net._open_window, net._close_window
    real_flow_phase = fluid_mod.flow_phase

    def opened(dt, steps):
        backlog = {q for q in range(net.n_queues) if net.q_len[q] != 0.0}
        q, qmap = open_window(dt, steps)
        windows.append({"block": q, "steps": steps, "backlog": backlog,
                        "on_path": set(), "live": [], "states": []})
        return q, qmap

    def spy(*args, **kwargs):
        w = windows[-1]
        q = w["block"]
        on_path = {int(g) for tab in owner_tables(net)
                   for i in range(tab.n_flows) if tab.f_active[i]
                   for g in tab.f_path[i] if g >= 0}
        w["on_path"] |= on_path
        w["live"].append(on_path | {int(g) for g, b in zip(q.queues, q.q_len)
                                    if b != 0.0})
        w["states"].append(_block_state(q))
        return real_flow_phase(*args, **kwargs)

    def closed(q):
        windows[-1]["states"].append(_block_state(q))
        close_window(q)

    monkeypatch.setattr(net, "_open_window", opened)
    monkeypatch.setattr(net, "_close_window", closed)
    monkeypatch.setattr(fluid_mod, "flow_phase", spy)
    # the incast flows finish on sub-step 11, so the window opening on
    # sub-step 12 holds h0's backlog with no flow left on its path
    lengths = (1, 7, 3, 20)
    while net.active_flow_count() or net.q_len.any():
        net.advance(lengths[len(windows) % 4] * cfg.step_dt)
        assert len(windows) < 1_000
    net.advance(7 * cfg.step_dt)
    off_path = 0
    for w in windows:
        block = w["block"].queues.tolist()
        assert block == sorted(w["backlog"] | w["on_path"])
        assert len(w["states"]) == w["steps"] + 1
        off_path += len(w["backlog"] - w["on_path"])
        for live, before, after in zip(w["live"], w["states"],
                                       w["states"][1:]):
            idle = np.array([g not in live for g in block], dtype=bool)
            assert (after["q_len"][idle] == 0.0).all()
            for name in ("_acc_tx", "_acc_marked", "_acc_qlen_area",
                         "_acc_drops"):
                assert after[name][idle].tobytes() == \
                    before[name][idle].tobytes(), name
    assert off_path > 0
    assert len(net.finished_flows) == len(net.flow_objs)
    assert len(windows[-1]["block"].queues) == 0


def test_nan_buffer_off_every_path_is_still_integrated():
    """A corrupted (NaN) queue no flow crosses is live — ``!= 0.0``, not
    ``> 0.0`` — so the NaN reaches its accumulators exactly as a
    whole-fabric integration would carry it there."""
    cfg = _small()
    net = ShardedFluidNetwork(cfg, seed=0)
    net.start_flow(Flow(0, "h0", "h1", 10**8))
    net._step(cfg.step_dt)
    far = net._q_core_down(cfg.n_core - 1, cfg.n_pods - 1)
    assert net.q_len[far] == 0.0 and net._acc_qlen_area[far] == 0.0
    net.q_len[far] = np.nan
    net._step(cfg.step_dt)
    assert np.isnan(net.q_len[far]) and np.isnan(net._acc_qlen_area[far])


# ------------------------------------------------------------- metamorphic
def _idle_pod_run(n_pods):
    """The same 40 flows between pods 0 and 1 of an ``n_pods`` fabric."""
    cfg = FatTreeConfig(n_pods=n_pods, edge_per_pod=2, agg_per_pod=2,
                        core_per_agg=2, hosts_per_edge=2,
                        host_rate_bps=10e9, agg_rate_bps=40e9,
                        core_rate_bps=40e9)
    net = ShardedFluidNetwork(cfg, seed=3)
    net.set_ecn_all(ECNConfig(kmin_bytes=20_000, kmax_bytes=80_000,
                              pmax=0.2))
    rng = np.random.default_rng(5)
    busy = 2 * cfg.hosts_per_pod
    hot = rng.choice(busy, size=2, replace=False)
    flows = []
    for i in range(40):
        dst = int(rng.choice(hot))
        src = int((dst + rng.integers(1, busy)) % busy)
        flows.append(Flow(i, f"h{src}", f"h{dst}",
                          int(rng.integers(50_000, 2_000_000)),
                          start_time=float(rng.uniform(0, 2e-3))))
    net.start_flows(flows)
    seen = []
    for steps in (60, 240):
        for _ in range(steps):
            net._step(cfg.step_dt)
        table = flow_table_state(net)
        seen.append({
            "finished": [(f.flow_id, repr(f.finish_time))
                         for f in net.finished_flows],
            "rate": table["f_rate"].tobytes(),
            "alpha": table["f_alpha"].tobytes(),
            "latencies": list(net.latencies),
            "buffered": net.q_len.sum()})
    return seen


def test_idle_pods_are_inert():
    """Pods that own no flow and receive none change nothing: the same
    flow list on a two-pod and on a four-pod fabric gives the same finish
    times, rates, alphas, latency samples and buffered bytes, bit for
    bit, after 60 and after 300 sub-steps.  This is the pod-count
    independence of the owner order: a queue's arrival is its own pod's
    sum first and then the other *contributing* pods in order, whatever
    the number of pods around them."""
    two, four = _idle_pod_run(2), _idle_pod_run(4)
    assert two[0]["finished"] or two[1]["finished"]
    assert two[1]["latencies"] and two[1]["buffered"] > 0
    assert two == four
