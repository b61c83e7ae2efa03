"""Switch telemetry collection: segment-reduced ``queue_stats`` and the
per-flow table built on first read (``SwitchStatsMixin``).

The oracles here are written in this file, not in ``src/``: a plain
per-switch boolean-mask recomputation for the statistics, and a plain
slot-order loop for the observations.  Everything is compared bit for
bit — the grouped row sums replace per-switch sums on the control path
of every simulator, so an association change would move fingerprints.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.static_ecn import secn1
from repro.netsim.batchfluid import BatchFluidNetwork
from repro.netsim.ecn import ECNConfig
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.shard import ShardedFluidNetwork
from repro.resilience.faults import ChaosInjector, FaultPlan
from tests.flow_rows import count_row_builds, switch_rows
from tests.owner_tables import owner_tables

#: edge switches 5 queues (×8), agg switches 3 (×4), and a core plane of
#: ONE switch with 4 — three classes, one of them a single switch.
_UNEVEN_TREE = FatTreeConfig(n_pods=4, edge_per_pod=2, agg_per_pod=1,
                             core_per_agg=1, hosts_per_edge=4,
                             host_rate_bps=10e9, agg_rate_bps=40e9,
                             core_rate_bps=40e9)
#: leaves 6 queues (×3), spines 3 (×2)
_LEAF_SPINE = FluidConfig(n_spine=2, n_leaf=3, hosts_per_leaf=4,
                          host_rate_bps=10e9, spine_rate_bps=40e9)


def _networks():
    return {"leaf_spine": FluidNetwork(_LEAF_SPINE, seed=1),
            "fat_tree": ShardedFluidNetwork(_UNEVEN_TREE, seed=1)}


def _load(net, n_flows, seed, spread=1e-3):
    rng = np.random.default_rng(seed)
    n = net.config.n_hosts
    flows = []
    for i in range(n_flows):
        src, dst = rng.choice(n, size=2, replace=False)
        flows.append(Flow(i, f"h{src}", f"h{dst}",
                          int(rng.integers(20_000, 3_000_000)),
                          start_time=float(rng.uniform(0, spread))))
    net.start_flows(flows)
    return flows


# ------------------------------------------------------------ statistics
def _mask_oracle(net, arrays, interval, s):
    """One switch's record fields from copies of the accumulators."""
    mask = net.q_switch == s
    drops = float(arrays["drops"][mask].sum())
    return {
        "interval": interval,
        "qlen_bytes": float(arrays["q_len"][mask].sum()),
        "max_port_qlen_bytes": float(arrays["q_len"][mask].max(initial=0.0)),
        "avg_qlen_bytes": float(arrays["area"][mask].sum()) / interval,
        "tx_bytes": int(float(arrays["tx"][mask].sum())),
        "tx_marked_bytes": int(float(arrays["marked"][mask].sum())),
        "dropped_pkts": int(drops // 1000) if drops else 0,
        "capacity_bps": float(arrays["q_cap"][mask].sum() * 8.0),
        "n_queues": int(mask.sum()),
    }


def _bits(x):
    return np.float64(x).tobytes() if isinstance(x, float) else x


def _collect_and_check_against_mask(net):
    """``net.queue_stats()``, every field of every record compared bit
    for bit with :func:`_mask_oracle` over the accumulators as they stood
    just before the call."""
    interval = net._acc_time
    arrays = {"tx": net._acc_tx.copy(), "marked": net._acc_marked.copy(),
              "area": net._acc_qlen_area.copy(),
              "drops": net._acc_drops.copy(), "q_len": net.q_len.copy(),
              "q_cap": net.q_cap.copy()}
    stats = net.queue_stats()
    names = net.switch_names()
    assert list(stats) == names
    for s, name in enumerate(names):
        assert stats[name].switch == name
        for field_, want in _mask_oracle(net, arrays, interval, s).items():
            have = getattr(stats[name], field_)
            assert type(have) is type(want), (name, field_)
            assert _bits(have) == _bits(want), (name, field_, have, want)
    return stats


@pytest.mark.parametrize("kind", ["leaf_spine", "fat_tree"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       lo=st.integers(-3, 9), hi=st.integers(-3, 9),
       zero_share=st.sampled_from([0.0, 0.5, 1.0]),
       interval=st.floats(1e-6, 1.0))
def test_queue_stats_equals_boolean_mask_recomputation(kind, seed, lo, hi,
                                                       zero_share, interval):
    """Random accumulator contents over magnitudes 1e-3…1e9 (where the
    order of additions reaches the last bits), including all-zero
    switches: every field of every record equals the per-switch
    boolean-mask recomputation, bit for bit."""
    net = _networks()[kind]
    classes = {len(idx) for idx in net._switch_index_cache()}
    assert len(classes) >= 2            # the classes really differ
    rng = np.random.default_rng(seed)
    lo, hi = min(lo, hi), max(lo, hi) + 1
    for a in (net._acc_tx, net._acc_marked, net._acc_qlen_area,
              net._acc_drops, net.q_len):
        a[:] = 10.0 ** rng.uniform(lo, hi, size=a.size)
        a[rng.random(a.size) < zero_share] = 0.0
    net._acc_time = interval
    stats = _collect_and_check_against_mask(net)
    assert all(st_.ecn == net.config.default_ecn for st_ in stats.values())
    # the interval was reset
    assert net._acc_time == 0.0 and not net._acc_tx.any()


def test_one_switch_class_is_exercised():
    net = ShardedFluidNetwork(_UNEVEN_TREE, seed=0)
    sizes = sorted((len(sw), idx.shape[1])
                   for sw, idx in net._switch_classes())
    assert sizes == [(1, 4), (4, 3), (8, 5)]


def test_queue_stats_fast_equals_reference_after_traffic():
    """Accumulators filled by real traffic (drops included: incast into
    a tiny buffer) rather than drawn at random: every record still equals
    the boolean-mask reference above, bit for bit."""
    cfg = FluidConfig(n_spine=2, n_leaf=3, hosts_per_leaf=4,
                      host_rate_bps=10e9, spine_rate_bps=10e9,
                      switch_buffer_bytes=30_000)
    net = FluidNetwork(cfg, seed=4)
    _load(net, 40, seed=9)
    net.start_flows([Flow(100 + i, f"h{i}", "h0", 2_000_000)
                     for i in range(1, 12)])
    dropped = 0
    for _ in range(4):
        net.advance(5e-4)
        stats = _collect_and_check_against_mask(net)
        dropped += sum(st_.dropped_pkts for st_ in stats.values())
    assert dropped > 0


def test_batch_replica_views_use_their_own_rows():
    """A replica's accumulators are row views into batch storage; the
    cached index matrices gather from whatever the attribute points at."""
    solos = [FluidNetwork(_LEAF_SPINE, seed=s) for s in (1, 2)]
    reps = [FluidNetwork(_LEAF_SPINE, seed=s) for s in (1, 2)]
    for r, (a, b) in enumerate(zip(solos, reps)):
        _load(a, 30, seed=20 + r)
        _load(b, 30, seed=20 + r)
    batch = BatchFluidNetwork.from_networks(reps)
    for _ in range(3):
        for net in solos:
            net.advance(1e-3)
        batch.advance(1e-3)
        assert [net.queue_stats() for net in solos] == batch.queue_stats()


# ------------------------------------------------------------ ECN stores
@pytest.mark.parametrize("kind", ["leaf_spine", "fat_tree"])
def test_ecn_stores_and_port_stats_follow_queue_ownership(kind):
    net = _networks()[kind]
    _load(net, 20, seed=3)
    net.advance(1e-3)
    names = net.switch_names()
    target = names[len(names) // 2]
    s = names.index(target)
    mine = np.flatnonzero(net.q_switch == s)
    assert net.switch_queue_indices(target) == mine.tolist()
    cfg = ECNConfig(kmin_bytes=7_000, kmax_bytes=90_000, pmax=0.3)
    net.set_ecn(target, cfg)
    port_cfg = ECNConfig(kmin_bytes=1_000, kmax_bytes=2_000, pmax=0.9)
    net.set_ecn_port(target, 1, port_cfg)
    default = net.config.default_ecn
    for q in range(net.n_queues):
        want = (port_cfg if q == mine[1] else cfg if q in mine else default)
        assert (net.kmin[q], net.kmax[q], net.pmax[q]) == (
            want.kmin_bytes, want.kmax_bytes, want.pmax)
    ports = net.port_stats()
    assert list(ports) == [(name, k) for i, name in enumerate(names)
                           for k in range(int((net.q_switch == i).sum()))]
    for k, q in enumerate(mine):
        st_ = ports[(target, k)]
        assert st_.qlen_bytes == float(net.q_len[q])
        assert st_.tx_bytes == int(net._acc_tx[q])
        assert st_.ecn.kmin_bytes == int(net.kmin[q])


@pytest.mark.parametrize("kind", ["leaf_spine", "fat_tree"])
def test_port_stats_report_the_drops_their_switch_sums(kind):
    """12-to-1 incast into a 20 kB buffer for 2 ms: the ports report
    drops, and each switch's ``dropped_pkts`` is their sum give or take
    the sub-packet remainders (at most one packet per port)."""
    net = (FluidNetwork(dataclasses.replace(FluidConfig.small(),
                                            switch_buffer_bytes=20_000))
           if kind == "leaf_spine" else
           ShardedFluidNetwork(dataclasses.replace(
               FatTreeConfig(), switch_buffer_bytes=20_000)))
    net.start_flows([Flow(i, f"h{i}", "h0", 10**8) for i in range(1, 13)])
    net.advance(2e-3)
    ports = net.port_stats()
    stats = net.queue_stats()
    assert sum(p.dropped_pkts for p in ports.values()) > 0
    for name, st_ in stats.items():
        mine = [p.dropped_pkts for (sw, _), p in ports.items() if sw == name]
        assert sum(mine) <= st_.dropped_pkts <= sum(mine) + len(mine), name


# ------------------------------------------------------------ flow table
def _obs_oracle(net):
    """Per-switch ``{fid: (src, dst, bytes seen)}`` by a plain loop over
    the flow table(s) in (owner, slot) order, hosts as their indices."""
    out, flows = {}, net.flows
    for tab in owner_tables(net):
        for i in range(tab.n_flows):
            if not tab.f_active[i]:
                continue
            fid = tab.fid_at[i]
            flow = flows[fid]
            seen = float(tab.f_size[i]) - float(tab.f_remaining[i])
            row = (int(flow.src[1:]), int(flow.dst[1:]), int(max(seen, 1.0)))
            for q in tab.f_path[i]:
                if q >= 0:
                    out.setdefault(int(net.q_switch[q]), {})[fid] = row
    return out


@pytest.mark.parametrize("kind", ["leaf_spine", "fat_tree"])
def test_flow_obs_is_a_collection_time_snapshot(kind):
    """Read *after* further stepping — flows progressed, finished, slots
    reused — a record's rows still show the bytes seen as of the
    collection, in the oracle's order."""
    net = _networks()[kind]
    _load(net, 50, seed=11, spread=4e-3)
    net.advance(1e-3)
    want = _obs_oracle(net)
    stats = net.queue_stats()
    finished_before = len(net.finished_flows)
    for _ in range(6):
        net.advance(1e-3)
        net.queue_stats()
    assert len(net.finished_flows) > finished_before     # slots were reused
    names = net.switch_names()
    assert any(want.get(s) for s in range(len(names)))
    for s, name in enumerate(names):
        assert stats[name].flow_rows[1] == s
        assert list(switch_rows(stats[name]).items()) == \
            list(want.get(s, {}).items())


def test_flow_obs_equals_reference_twin_in_order():
    """Collection after collection, as flows start and finish in between:
    every switch's rows equal the plain-loop twin above, row for row."""
    net = FluidNetwork(_LEAF_SPINE, seed=2)
    _load(net, 40, seed=5, spread=2e-3)
    for _ in range(3):
        net.advance(1e-3)
        want = _obs_oracle(net)
        stats = net.queue_stats()
        assert any(want.values())
        for s, name in enumerate(net.switch_names()):
            assert list(switch_rows(stats[name]).items()) == \
                list(want.get(s, {}).items())


@pytest.fixture
def rows_built(monkeypatch):
    """The fluid collection tables whose rows were built."""
    return count_row_builds(monkeypatch)


@pytest.mark.parametrize("kind", ["leaf_spine", "fat_tree"])
def test_flow_obs_never_built_when_unread(kind, rows_built):
    """A static controller reads no flow table: a whole run builds no
    rows.  The first read builds them once, for every switch."""
    net = _networks()[kind]
    _load(net, 40, seed=8, spread=3e-3)
    controller = secn1()
    for _ in range(4):
        net.advance(1e-3)
        stats = net.queue_stats()
        controller.decide(stats, net.now, net)
    assert rows_built == []
    active = sum(int(t.f_active.sum()) for t in owner_tables(net))
    assert active > 0
    tables = {id(st_.flow_rows[0]) for st_ in stats.values()}
    for st_ in stats.values():
        st_.flow_rows[0].rows()
    assert len(tables) == len(rows_built) == 1       # one build, shared
    assert len(np.unique(rows_built[0].rows()[1])) == active


def test_replace_neither_forces_nor_loses_flow_obs(rows_built):
    net = FluidNetwork(_LEAF_SPINE, seed=3)
    _load(net, 30, seed=6)
    net.advance(1e-3)
    stats = net.queue_stats()
    st_ = stats["leaf0"]
    copy = dataclasses.replace(st_, avg_qlen_bytes=0.0, tx_bytes=7)
    assert rows_built == []
    assert (copy.avg_qlen_bytes, copy.tx_bytes) == (0.0, 7)
    assert st_.tx_bytes != 7 and copy.switch == "leaf0"
    assert copy.flow_rows[0] is st_.flow_rows[0]
    assert copy.flow_rows[1] == st_.flow_rows[1]
    assert switch_rows(copy) and switch_rows(copy) == switch_rows(st_)
    with pytest.raises(TypeError):
        dataclasses.replace(st_, no_such_field=1)


def test_chaos_and_guard_copies_keep_flow_obs_deferred(rows_built):
    from repro.resilience.guard import ResilientController

    net = FluidNetwork(_LEAF_SPINE, seed=3)
    _load(net, 30, seed=6)
    net.advance(1e-3)
    plan = FaultPlan().corrupt("leaf1", 0.0, 1.0,
                               stats_field="avg_qlen_bytes",
                               value=float("nan"))
    stats = net.queue_stats()
    seen = ChaosInjector(net, plan).filter_stats(stats, 0.5)
    assert np.isnan(seen["leaf1"].avg_qlen_bytes)
    guard = ResilientController(secn1(), net.switch_names())
    clean = guard._sanitize_stats(seen, 0.5)
    assert clean["leaf1"].avg_qlen_bytes == 0.0
    assert rows_built == []
    assert clean["leaf1"].flow_rows == stats["leaf1"].flow_rows
    assert switch_rows(clean["leaf1"])