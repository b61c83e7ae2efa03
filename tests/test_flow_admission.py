"""Flow registration and admission: whole-list validation, the
start-time-ordered pending table, and route-ahead batch routing on the
fat-tree (``FlowTableMixin`` / ``ShardedFluidNetwork``).

The routing oracle is a scalar re-derivation written here from the
documented queue layout and the scalar ``ecmp_hash`` — not a call into
``src/`` — and it is compared with what the flow table holds while
links fail, partition and come back.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.fattree import FatTreeConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.routing import (ecmp_hash, ecmp_hash_array, splitmix64,
                                  splitmix64_array)
from repro.netsim.shard import ShardedFluidNetwork
from tests.owner_tables import owner_tables

_NETWORKS = {
    "leaf_spine": lambda: FluidNetwork(FluidConfig.small(), seed=0),
    "fat_tree": lambda: ShardedFluidNetwork(FatTreeConfig.small(), seed=0),
}


# ------------------------------------------------------------ registration
@pytest.mark.parametrize("kind", sorted(_NETWORKS))
class TestRegistration:
    @pytest.mark.parametrize("dst", ["h9999", "hx", "nope", 10_000, -1])
    def test_bad_destination_is_rejected_at_registration(self, kind, dst):
        """It used to be accepted and blow up mid-``advance`` (IndexError /
        KeyError) after ``now`` had moved and flows had been popped."""
        net = _NETWORKS[kind]()
        with pytest.raises(ValueError, match="unknown host"):
            net.start_flow(Flow(1, "h0", dst, 1000))
        assert net.active_flow_count() == 0 and not net.flow_objs
        net.advance(1e-3)                       # nothing half-registered

    @pytest.mark.parametrize("src", ["h9999", "hx", -1])
    def test_bad_source_is_rejected(self, kind, src):
        net = _NETWORKS[kind]()
        with pytest.raises(ValueError, match="unknown host"):
            net.start_flow(Flow(1, src, "h1", 1000))

    def test_int_hosts_are_accepted(self, kind):
        net = _NETWORKS[kind]()
        net.start_flows([Flow(1, 0, 5, 10**8), Flow(2, "h1", 4, 10**8)])
        net.advance(net.config.step_dt)
        assert net.active_flow_count() == 2

    @pytest.mark.parametrize("bad", [
        Flow(3, "h1", "h2", 1000),                # repeats an id in the list
        Flow(0, "h1", "h2", 1000),                # already registered
        Flow(9, "h1", "h999", 1000),              # unknown destination
        Flow(9, "zz", "h2", 1000),                # unknown source
        Flow(-4, "h1", "h2", 1000),               # id outside [0, 2**64)
        Flow(2**64, "h1", "h2", 1000),
    ])
    def test_start_flows_is_all_or_nothing(self, kind, bad):
        net = _NETWORKS[kind]()
        net.start_flow(Flow(0, "h0", "h1", 5000, start_time=1e-3))
        good = [Flow(i, "h0", "h3", 1000) for i in range(1, 6)]
        with pytest.raises(ValueError):
            net.start_flows(good[:3] + [bad] + good[3:])
        assert net.active_flow_count() == 1
        assert list(net.flow_objs) == [0]
        net.start_flows(good)                   # the good ones still fit
        assert net.active_flow_count() == 6

    def test_duplicate_names_the_id(self, kind):
        net = _NETWORKS[kind]()
        net.start_flow(Flow(7, "h0", "h1", 1000))
        with pytest.raises(ValueError, match="duplicate flow id 7"):
            net.start_flow(Flow(7, "h0", "h1", 1000))


# ------------------------------------------------------------ pending order
@pytest.mark.parametrize("kind", sorted(_NETWORKS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_admission_follows_start_time_then_registration(kind, data):
    """Flows registered in any number of calls, in any order, with tied
    start times: each activates at the first step whose time has reached
    its start, and — one pod/fabric, no slot reuse — takes the next slot
    in (start time, registration) order."""
    net = _NETWORKS[kind]()
    dt = net.config.step_dt
    n = data.draw(st.integers(1, 30))
    # starts on a coarse grid: ties, and starts exactly on a step edge
    starts = data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=3)))
    flows = [Flow(100 + i, "h0", "h1", 10**9, start_time=k * dt / 2)
             for i, k in enumerate(starts)]
    steps_between = data.draw(st.integers(0, 3))
    admitted = []

    seen_steps = []

    def step():
        net._step(dt)
        seen_steps.append(net.now)
        tab = owner_tables(net)[0]
        admitted.extend(tab.fid_at[i]
                        for i in range(len(admitted), tab.n_flows))

    steps_before = {}
    for lo, hi in zip([0] + cuts, cuts + [n]):
        net.start_flows(flows[lo:hi])
        for f in flows[lo:hi]:
            steps_before[f.flow_id] = len(seen_steps)
        for _ in range(steps_between):
            step()
    for _ in range(12):
        step()
    assert net.active_flow_count() == n == len(admitted)
    # a flow registered late is due at the next step; flows due at the
    # same step go in by start time, registration order breaking ties
    order = sorted(flows, key=lambda f: (
        max(_first_step_at_or_after(f.start_time, dt),
            steps_before[f.flow_id] + 1), f.start_time))
    assert admitted == [f.flow_id for f in order]


def _first_step_at_or_after(t, dt):
    now, k = 0.0, 0
    while True:          # ``now`` accumulates exactly as the simulator's
        now += dt
        k += 1
        if now >= t:
            return k


def test_pending_table_holds_32_bytes_a_flow():
    net = ShardedFluidNetwork(FatTreeConfig.small(), seed=0)
    net.start_flows([Flow(i, "h0", "h5", 1000, start_time=1.0 + i)
                     for i in range(1000)])
    net.advance(net.config.step_dt)             # merges the staged chunk
    pend = net._pending
    assert len(pend) == 1000
    assert sum(c.nbytes for c in pend._columns()) == 32 * 1000


# ------------------------------------------------------------ hashing
_PINNED_MIX = {0: 0xE220A8397B1DCDAF, 1: 0x910A2DEC89025CC1}


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_vector_hash_equals_scalar(ids):
    edge = [0, 1, 2**63 - 1, 2**63, 2**64 - 1]
    arr = np.array(ids + edge, dtype=np.uint64)
    assert splitmix64_array(arr).tolist() == [splitmix64(i)
                                              for i in ids + edge]
    for n in range(1, 65):
        got = ecmp_hash_array(arr, n)
        assert got.dtype == np.int64
        assert got.tolist() == [ecmp_hash(i, n) for i in ids + edge]
    ns = np.arange(len(arr)) % 64 + 1           # one choice-set size a flow
    assert ecmp_hash_array(arr, ns).tolist() == [
        ecmp_hash(i, int(n)) for i, n in zip(ids + edge, ns)]


def test_vector_hash_keeps_the_pinned_values():
    arr = np.array(sorted(_PINNED_MIX), dtype=np.uint64)
    assert splitmix64_array(arr).tolist() == [_PINNED_MIX[0], _PINNED_MIX[1]]
    assert ecmp_hash_array(np.arange(8, dtype=np.uint64), 4).tolist() == \
        [3, 1, 2, 1, 2, 2, 0, 3]
    assert ecmp_hash_array(arr[:0], 4).tolist() == []
    with pytest.raises(ValueError):
        ecmp_hash_array(arr, 0)
    with pytest.raises(ValueError):
        ecmp_hash_array(arr, np.array([3, 0]))
    with pytest.raises(TypeError):
        splitmix64_array(np.arange(4))          # int64: would not wrap right


# ------------------------------------------------------------ routing oracle
_TREE = FatTreeConfig(n_pods=4, edge_per_pod=2, agg_per_pod=2,
                      core_per_agg=2, hosts_per_edge=2)


def _scalar_route(cfg, uplink_up, fid, src, dst):
    """Path (−1-padded to five hops) and core of one flow, from the queue
    layout in ``ShardedFluidNetwork``'s docstring."""
    n_e, n_a, cpa = cfg.edge_per_pod, cfg.agg_per_pod, cfg.core_per_agg
    hpp = cfg.hosts_per_pod
    edge_up0 = hpp
    agg_up0 = edge_up0 + n_e * n_a
    agg_down0 = agg_up0 + n_a * cpa
    block = agg_down0 + n_a * n_e
    core0 = cfg.n_pods * block
    ps, hs = divmod(src, hpp)
    pd, hd = divmod(dst, hpp)
    es, ed = hs // cfg.hosts_per_edge, hd // cfg.hosts_per_edge
    down = pd * block + hd
    if ps != pd:
        live = [c for c in range(cfg.n_core)
                if uplink_up[ps][c] and uplink_up[pd][c]]
        live = live or list(range(cfg.n_core))      # partitioned pair
        c = live[ecmp_hash(fid, len(live))]
        a = c // cpa
        return [ps * block + edge_up0 + es * n_a + a,
                ps * block + agg_up0 + c,
                core0 + c * cfg.n_pods + pd,
                pd * block + agg_down0 + a * n_e + ed,
                down], c
    if es != ed:
        a = ecmp_hash(fid, n_a)
        return [ps * block + edge_up0 + es * n_a + a,
                pd * block + agg_down0 + a * n_e + ed, down, -1, -1], -1
    return [down, -1, -1, -1, -1], -1


class _RouteOracle:
    """Follows a network's flow table: a flow is routed when admitted,
    under the links as they are then; a link change re-routes exactly the
    flows whose core lost an uplink at either end."""

    def __init__(self, net):
        self.net = net
        self.cfg = net.config
        self.routes = {}

    def _table(self):
        out = {}
        for sh in owner_tables(self.net):
            for i, fid in sh.fid_at.items():
                out[fid] = (int(sh.f_src[i]), int(sh.f_dst[i]),
                            sh.f_path[i].tolist(), int(sh.f_core[i]))
        return out

    def after_step(self):
        up = self.net.uplink_up.tolist()
        table = self._table()
        for fid, (src, dst, _, _) in table.items():
            if fid not in self.routes:
                self.routes[fid] = _scalar_route(self.cfg, up, fid, src, dst)
        self.check(table)

    def after_link_change(self):
        up = self.net.uplink_up.tolist()
        table = self._table()
        for fid, (src, dst, _, _) in table.items():
            c = self.routes[fid][1]
            if c >= 0 and not (up[src // self.cfg.hosts_per_pod][c]
                               and up[dst // self.cfg.hosts_per_pod][c]):
                self.routes[fid] = _scalar_route(self.cfg, up, fid, src, dst)
        self.check(table)

    def check(self, table):
        for fid, (_, _, path, core) in table.items():
            assert (path, core) == tuple(self.routes[fid]), fid


def _route_net(n_flows, seed, horizon):
    net = ShardedFluidNetwork(_TREE, seed=0)
    rng = np.random.default_rng(seed)
    flows = []
    for i in range(n_flows):
        src, dst = rng.choice(_TREE.n_hosts, size=2, replace=False)
        flows.append(Flow(int(rng.integers(0, 2**63)) * 2 + i % 2,
                          f"h{src}", f"h{dst}", 10**8,
                          start_time=float(rng.uniform(0, horizon))))
    net.start_flows(flows)
    return net


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), fail=st.floats(0.1, 0.6),
       window=st.sampled_from([1, 7, 40]))
def test_batch_routes_equal_scalar_rederivation(seed, fail, window):
    """Healthy, with a fraction of uplinks failed, with a pod cut off
    from the core plane entirely, and restored — routing ``window``
    sub-steps ahead of admission each time, so most link changes arrive
    while flows that were routed ahead are still waiting to be admitted:
    they must take their route under the links as they are when they
    start."""
    dt = _TREE.step_dt
    net = _route_net(120, seed, horizon=80 * dt)
    oracle = _RouteOracle(net)
    changes = {
        15: lambda: net.fail_uplinks(fail, rng=np.random.default_rng(seed)),
        35: lambda: _cut_pod(net, 1),
        55: net.restore_uplinks,
    }
    for k in range(90):
        if k % window == 0:
            net._route_horizon = net.now + window * dt   # as advance() does
        net._step(dt)
        oracle.after_step()
        if k in changes:
            waiting = net._routed is not None and \
                net._routed[0] + len(net._routed[2]) > net._pending.lo
            changes[k]()
            assert net._routed is None
            oracle.after_link_change()
            if window == 40:
                assert waiting      # some routed-ahead flows were pending
    assert len(oracle.routes) == 120
    cores = {c for _, c in oracle.routes.values()}
    assert len(cores) > 2


def _cut_pod(net, pod):
    net.uplink_up[pod, :] = False       # every pair with this pod partitions
    net._apply_link_state()


def test_advance_routes_one_batch_per_window(monkeypatch):
    """``advance`` routes a whole window's flows in one call (and a
    window without arrivals in none), not one call per sub-step."""
    net = _route_net(200, seed=1, horizon=3e-3)
    calls = []
    route = net._route_batch
    monkeypatch.setattr(net, "_route_batch",
                        lambda *a: calls.append(len(a[0])) or route(*a))
    oracle = _RouteOracle(net)
    for _ in range(4):
        net.advance(1e-3)               # 20 sub-steps each
        oracle.after_step()
    assert len(calls) <= 4 and sum(calls) >= 200
    assert net.active_flow_count() == 200 == len(oracle.routes)


def test_registering_mid_run_drops_the_routes_made_ahead():
    """A later ``start_flows`` renumbers the pending rows; flows routed
    ahead under the old numbering must not be admitted with a neighbour's
    route."""
    dt = _TREE.step_dt
    net = _route_net(60, seed=2, horizon=40 * dt)
    oracle = _RouteOracle(net)
    net._route_horizon = 1.0
    for _ in range(5):
        net._step(dt)
    oracle.after_step()
    assert net._routed is not None
    net.start_flows([Flow(10**12 + i, "h0", f"h{5 + i}", 10**8,
                          start_time=net.now + (2 + i) * dt)
                     for i in range(6)])
    assert net._routed is None
    for _ in range(45):
        net._step(dt)
        oracle.after_step()
    assert len(oracle.routes) == 66
