"""A fat-tree ``advance`` is one window: its sub-steps run on a block of
the queues gathered when it opens.  Here windows are checked against the
plain-loop oracle of ``tests/test_step_oracle.py`` across everything that
can change between them — ECN on a switch and on one port, an uplink
failure and its restore, a fabric capacity factor, flows registered to
start in the middle of the next window, and interval statistics reads.

A reference network takes the same schedule one sub-step at a time, each
sub-step checked against the oracle; the network under test takes it in
windows of ``WINDOW`` sub-steps and must match the reference, bit for
bit, after every window.  Also: ``_step(dt)`` called alone is the same
sub-step as ``advance(dt)``.
"""

import dataclasses

import numpy as np

from repro.fingerprint import fingerprint
from repro.netsim.ecn import ECNConfig
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.flow import Flow
from repro.netsim.shard import ShardedFluidNetwork
from tests.owner_tables import flow_table_state, owner_tables
from tests.test_step_oracle import (LAX, TIGHT, _admit, _assert_stepped,
                                    _load, _merge, _oracle_step)

CFG = dataclasses.replace(FatTreeConfig(), switch_buffer_bytes=150_000)
WINDOW = 20
_QUEUE_STATE = ("q_len", "q_cap", "kmin", "kmax", "pmax", "_acc_tx",
                "_acc_marked", "_acc_qlen_area", "_acc_drops")


def _state(net):
    return {**{name: getattr(net, name).tobytes() for name in _QUEUE_STATE},
            **{name: col.tobytes()
               for name, col in flow_table_state(net).items()},
            "finished": [(f.flow_id, f.finish_time)
                         for f in net.finished_flows],
            "latencies": list(net.latencies), "now": net.now,
            "rng": net.rng.bit_generator.state}


def _mid_window_flows(net, first_id):
    """Flows that start part-way into the next window, some at a
    sub-step boundary and some between two; a few cross pods into the
    hosts the earlier load made hot."""
    dt, hosts = CFG.step_dt, CFG.n_hosts
    return [Flow(first_id + i, f"h{(5 * i) % hosts}",
                 f"h{(5 * i + 1 + 3 * hosts // 4) % hosts}",
                 60_000 + 10_000 * i,
                 start_time=net.now + (3 + 2 * i + 0.5 * (i % 2)) * dt)
            for i in range(8)]


#: what happens between window ``k`` and ``k + 1``: ``(name, action)``
_SCHEDULE = {
    1: ("set_ecn", lambda net: net.set_ecn("pod1.agg0", LAX)),
    2: ("set_ecn_port", lambda net: net.set_ecn_port(
        "core0", 1, ECNConfig(kmin_bytes=1_000, kmax_bytes=20_000,
                              pmax=0.9))),
    3: ("fail_uplinks", lambda net: net.fail_uplinks(
        0.3, rng=np.random.default_rng(5))),
    4: ("start_flows", lambda net: net.start_flows(
        _mid_window_flows(net, 1_000))),
    5: ("restore_uplinks", lambda net: net.restore_uplinks()),
    6: ("capacity_factor", lambda net: net.set_fabric_capacity_factor(0.5)),
    7: ("queue_stats", lambda net: net.queue_stats()),
    8: ("start_flows", lambda net: net.start_flows(
        _mid_window_flows(net, 2_000))),
    9: ("capacity_factor", lambda net: net.set_fabric_capacity_factor(1.0)),
}


def _fabric():
    net = ShardedFluidNetwork(CFG, seed=3)
    net.set_ecn_all(TIGHT)
    _load(net, 40, 3, hot=3, spread=2e-3)
    return net


def test_windows_match_the_oracle_across_between_window_changes():
    ref, net = _fabric(), _fabric()
    queue_owner = (np.arange(ref.n_queues) // ref._pod_block).tolist()
    seen = {}
    for k in range(12):
        for _ in range(WINDOW):
            _admit(ref)
            want = _oracle_step(ref, owner_tables(ref), queue_owner)
            ref._step(CFG.step_dt)
            _assert_stepped(ref, want)
            _merge(seen, want["seen"])
        net.advance(WINDOW * CFG.step_dt)
        assert _state(net) == _state(ref), k
        if k in _SCHEDULE:
            _, change = _SCHEDULE[k]
            out = [change(x) for x in (ref, net)]
            assert fingerprint(out[0]) == fingerprint(out[1])
    assert all(seen.values()), seen
    assert {1_000, 2_000} <= {f.flow_id for f in net.finished_flows}


def test_step_alone_is_advance_over_one_sub_step():
    alone, advanced = _fabric(), _fabric()
    for k in range(60):
        if k == 30:
            for x in (alone, advanced):
                x.start_flows(_mid_window_flows(x, 1_000))
        alone._step(CFG.step_dt)
        advanced.advance(CFG.step_dt)
        assert _state(alone) == _state(advanced), k

