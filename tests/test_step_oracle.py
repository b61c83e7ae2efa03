"""One whole fluid Δt against an oracle the code did not write.

The solo, batch and fat-tree networks all step through the phase
functions of :mod:`repro.netsim.fluid`; every other conformance suite
compares those networks with each other, which cannot see all of them
drift together.  Here one step —
send rates, arrivals, queue integration and RED marking, per-flow mark
fraction / bottleneck / queueing delay, AIMD, bytes remaining, finished
flows, the latency sample — is rebuilt with plain Python loops over
Python floats from the state the tables held before the step, and the
step's outcome must match it **bit for bit**.

The oracle knows nothing about batching: a replica of a
:class:`BatchFluidNetwork` is checked as the solo network its view
claims to be.  It does know about owners sharing a queue (fat-tree pods):
there each owner's flows are summed first and the partial sums merged
own-owner-first, which with a single owner is the plain hop-major sum.
Nor does it know that the fat-tree integrates only its live queues: it
steps every queue, so skipping one whose integration changes anything
shows as a mismatch.

Also here: the ``np.float64`` type pin and the digests, captured at the
parent of the shared-kernel change, of a solo run and of a batch replica
(the sharded ones are ``_PINNED`` in ``tests/test_shard.py``).
"""

import copy
import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.netsim.batchfluid import BatchFluidNetwork
from repro.netsim.ecn import ECNConfig
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork, flow_phase
from repro.fingerprint import fingerprint
from repro.netsim.shard import ShardedFluidNetwork
from tests.flow_rows import pinned_form
from tests.owner_tables import owner_tables

#: a buffer small enough that incast overflows it, so drops are exercised
CFG = dataclasses.replace(FluidConfig.small(), switch_buffer_bytes=150_000)
TIGHT = ECNConfig(kmin_bytes=5_000, kmax_bytes=60_000, pmax=0.5)
LAX = ECNConfig(kmin_bytes=40_000, kmax_bytes=140_000, pmax=0.05)


def _load(net, n_flows, seed, hot=2, spread=5e-4):
    """Random flows, half of them aimed at ``hot`` destinations: several
    flows share a source NIC (each starts at line rate), a destination's
    down-queue is fed by same-leaf flows at hop 0 and remote ones at hop
    2, and a fifth of the pairs sit under one leaf (1-hop, padded paths).
    """
    rng = np.random.default_rng(seed)
    hosts = net.config.n_hosts
    hot_dsts = rng.choice(hosts, size=hot, replace=False)
    flows = []
    for i in range(n_flows):
        dst = int(rng.choice(hot_dsts) if i % 2 else rng.integers(hosts))
        src = int((dst + rng.integers(1, hosts)) % hosts)
        flows.append(Flow(i, f"h{src}", f"h{dst}",
                          int(rng.integers(20_000, 600_000)),
                          start_time=float(rng.uniform(0, spread))))
    net.start_flows(flows)


def _admit(net):
    """Admit the flows due on the next step now, so the oracle reads the
    table the step will work on (admission has its own oracle:
    ``tests/test_flow_admission.py``)."""
    t = net.now
    net.now = t + net.config.step_dt
    net._activate_due()
    net.now = t


def _oracle_step(net, tables, queue_owner=None):
    """What one Δt must do to ``net``, whose flows sit in ``tables``
    (:func:`owner_tables`): the expected queue and flow state, the
    ``(flow id, finish time)`` of the flows finishing, the latency sample,
    and which corner cases the step met."""
    cfg = net.config
    dt = cfg.step_dt
    line = cfg.host_rate_bps / 8.0
    now = net.now + dt
    n_queues = len(net.q_len)
    if queue_owner is None:
        queue_owner = [0] * n_queues

    flows = []
    for owner, tbl in enumerate(tables):
        for i in range(tbl.n_flows):
            if tbl.f_active[i]:
                flows.append({
                    "owner": owner, "tbl": tbl, "slot": i,
                    "src": int(tbl.f_src[i]), "rate": float(tbl.f_rate[i]),
                    "alpha": float(tbl.f_alpha[i]),
                    "remaining": float(tbl.f_remaining[i]),
                    "path": [int(q) for q in tbl.f_path[i] if q >= 0]})
    on_path = {q for f in flows for q in f["path"]}
    seen = {"nic_over": False, "padded": False, "marked": False,
            "dropped": False, "finished": False,
            # a buffer still draining that no active flow feeds: the
            # fat-tree integrates it only because its q_len is not 0.0
            "backlog_off_path": any(float(net.q_len[q]) != 0.0
                                    and q not in on_path
                                    for q in range(n_queues))}

    # ---- send rates: a host's flows share its NIC
    per_host = {}
    for f in flows:
        per_host[f["src"]] = per_host.get(f["src"], 0.0) + f["rate"]
    for f in flows:
        total = per_host[f["src"]]
        f["send"] = f["rate"] * (line / total) if total > line else f["rate"]
        seen["nic_over"] |= total > line
        seen["padded"] |= len(f["path"]) < tables[0].f_path.shape[1]

    # ---- arrivals: per (owner, queue) in hop-major table order, merged
    # into the queue own-owner-first, the others after it in owner order
    partial, on_path_hops = {}, []
    for hop in range(tables[0].f_path.shape[1]):
        for f in flows:
            if hop < len(f["path"]):
                key = f["owner"], f["path"][hop]
                partial[key] = partial.get(key, 0.0) + f["send"]
                on_path_hops.append(f["path"][hop])
    arrival = []
    for q in range(n_queues):
        total = partial.get((queue_owner[q], q), 0.0)
        for owner in range(len(tables)):
            if owner != queue_owner[q] and (owner, q) in partial:
                total += partial[owner, q]
        arrival.append(total)

    # ---- queue integration, RED marking, interval accumulators
    buf = cfg.switch_buffer_bytes
    want = {name: [] for name in ("q_len", "_acc_tx", "_acc_marked",
                                  "_acc_qlen_area", "_acc_drops")}
    p_mark, srv_ratio = [], []
    for q in range(n_queues):
        q_len, cap = float(net.q_len[q]), float(net.q_cap[q])
        kmin, kmax = float(net.kmin[q]), float(net.kmax[q])
        served = min(arrival[q] + q_len / dt, cap)
        new_qlen = max(q_len + (arrival[q] - cap) * dt, 0.0)
        drops = max(new_qlen - buf, 0.0)
        new_qlen = min(new_qlen, buf)
        p = min(max((new_qlen - kmin) / max(kmax - kmin, 1.0), 0.0), 1.0) \
            * float(net.pmax[q])
        if new_qlen >= kmax:
            p = 1.0
        p_mark.append(p)
        srv_ratio.append(cap / max(arrival[q], cap))
        tx = served * dt
        want["q_len"].append(new_qlen)
        want["_acc_tx"].append(float(net._acc_tx[q]) + tx)
        want["_acc_marked"].append(float(net._acc_marked[q]) + tx * p)
        want["_acc_qlen_area"].append(float(net._acc_qlen_area[q])
                                      + 0.5 * (q_len + new_qlen) * dt)
        want["_acc_drops"].append(float(net._acc_drops[q]) + drops)
        seen["marked"] |= 0.0 < p < 1.0
        seen["dropped"] |= drops > 0.0

    # ---- feedback along each flow's own hops, AIMD, progress
    finished, survivors = [], []
    for f in flows:
        hops = f["path"]
        no_mark = 1.0 - p_mark[hops[0]]
        bottleneck = srv_ratio[hops[0]]
        qdelay = want["q_len"][hops[0]] / float(net.q_cap[hops[0]])
        for q in hops[1:]:
            no_mark *= 1.0 - p_mark[q]
            bottleneck = min(bottleneck, srv_ratio[q])
            qdelay += want["q_len"][q] / float(net.q_cap[q])
        mark_frac = 1.0 - no_mark
        alpha = (1.0 - cfg.g) * f["alpha"] + cfg.g * mark_frac
        if mark_frac > 1e-3:
            rate = f["rate"] * (1.0 - alpha * 0.5 * cfg.md_gain * mark_frac)
        else:
            rate = f["rate"] + cfg.ai_fraction * line
        f["alpha"] = alpha
        f["rate"] = min(max(rate, cfg.min_rate_fraction * line), line)
        f["remaining"] -= f["send"] * bottleneck * dt
        f["active"] = f["remaining"] > 0.0
        if f["active"]:
            survivors.append(qdelay)
        else:
            f["remaining"] = 0.0
            finished.append((f["tbl"].fid_at[f["slot"]], now + qdelay))
    seen["finished"] = bool(finished)

    # ---- latency sample: one draw of the network's RNG over the survivors
    sample = None
    if survivors and len(net.latencies) < cfg.latency_sample_cap:
        rng = copy.deepcopy(net.rng)
        sample = (now, cfg.base_rtt / 2.0
                  + survivors[int(rng.integers(len(survivors)))])
    return {"flows": flows, "queues": want, "finished": finished,
            "sample": sample, "send": [f["send"] for f in flows],
            "arrival": arrival, "on_path": on_path_hops, "seen": seen,
            "before": (len(net.finished_flows), len(net.latencies))}


def _assert_stepped(net, want):
    """``net`` has taken the step ``want`` was computed for."""
    for name, values in want["queues"].items():
        assert getattr(net, name).tobytes() == np.array(values).tobytes(), name
    for f in want["flows"]:
        tbl, i = f["tbl"], f["slot"]
        for name in ("rate", "alpha", "remaining"):
            got = getattr(tbl, "f_" + name)[i]
            assert got.tobytes() == np.float64(f[name]).tobytes(), (name, i)
        assert bool(tbl.f_active[i]) == f["active"]
    n_fin, n_lat = want["before"]
    assert [(fl.flow_id, fl.finish_time)
            for fl in net.finished_flows[n_fin:]] == want["finished"]
    assert net.latencies[n_lat:] == ([want["sample"]] if want["sample"]
                                     else [])


def _merge(seen, more):
    for name, hit in more.items():
        seen[name] = seen.get(name, False) or hit


# ------------------------------------------------------------------- solo
def _solo_steps(n_flows, seed, steps):
    net = FluidNetwork(CFG, seed=seed)
    net.set_ecn_all(TIGHT)
    _load(net, n_flows, seed)
    seen = {}
    for _ in range(steps):
        _admit(net)
        want = _oracle_step(net, owner_tables(net))
        # the flow phase on its own, before the step consumes the state
        tab, = owner_tables(net)
        at = np.flatnonzero(tab.f_active)
        send, arrival, on_path = flow_phase(
            tab.f_src[at], tab.f_rate[at], tab.f_path[at].T,
            CFG.host_rate_bps / 8.0, CFG.n_hosts, net.n_queues)
        assert send.tobytes() == np.array(want["send"]).tobytes()
        assert arrival.tobytes() == np.array(want["arrival"]).tobytes()
        assert on_path.tolist() == want["on_path"]
        net.advance(CFG.step_dt)
        _assert_stepped(net, want)
        _merge(seen, want["seen"])
    return seen


@settings(max_examples=15, deadline=None)
@given(n_flows=st.integers(1, 40), seed=st.integers(0, 2**16),
       steps=st.integers(1, 60))
def test_solo_step_matches_plain_loop_oracle(n_flows, seed, steps):
    _solo_steps(n_flows, seed, steps)


def test_solo_oracle_run_meets_every_corner():
    """The fixed run the mutation checks were made on (CHANGES.md)."""
    seen = _solo_steps(40, 11, 80)
    del seen["backlog_off_path"]    # only the fat-tree skips idle queues
    assert all(seen.values()), seen


# ------------------------------------------------------------------ batch
def _batch_steps(n_flows, seed, steps):
    """Three replicas with their own ECN rows and traffic; the middle one
    never gets a flow."""
    batch = BatchFluidNetwork(CFG, seeds=[seed, seed + 1, seed + 2],
                              ecn_configs=[TIGHT, LAX, LAX])
    _load(batch.view(0), n_flows, seed)
    _load(batch.view(2), max(1, n_flows // 2), seed + 2, hot=1)
    seen = {}
    for _ in range(steps):
        for net in batch.views():   # admission may regrow the table
            _admit(net)
        wants = [_oracle_step(net, owner_tables(net))
                 for net in batch.views()]
        batch.advance(CFG.step_dt)
        for net, want in zip(batch.views(), wants):
            _assert_stepped(net, want)
            _merge(seen, want["seen"])
    assert owner_tables(batch.view(1))[0].n_flows == 0
    return seen


@settings(max_examples=10, deadline=None)
@given(n_flows=st.integers(1, 40), seed=st.integers(0, 2**16),
       steps=st.integers(1, 60))
def test_batch_step_matches_plain_loop_oracle(n_flows, seed, steps):
    _batch_steps(n_flows, seed, steps)


def test_batch_oracle_run_meets_every_corner():
    seen = _batch_steps(40, 11, 80)
    del seen["backlog_off_path"]    # only the fat-tree skips idle queues
    assert all(seen.values()), seen


# --------------------------------------------------------------- fat-tree
def _fattree_steps(n_flows, seed, steps):
    """Four pods feeding shared core and remote-pod queues.  The oracle
    integrates every queue; the network only the live ones (on an active
    path or holding bytes), so each step also checks that the queues it
    skipped are exactly the ones whose integration changes nothing."""
    cfg = dataclasses.replace(FatTreeConfig(), switch_buffer_bytes=150_000)
    net = ShardedFluidNetwork(cfg, seed=seed)
    net.set_ecn_all(TIGHT)
    _load(net, n_flows, seed, hot=3)
    # two equal flows into the last host from its edge neighbours, started
    # together: they finish on the same step with that host's queue still
    # full, so the next step finds a backlog no active path crosses
    dst = cfg.n_hosts - 1
    net.start_flows([Flow(n_flows + k, f"h{dst - 1 - k}", f"h{dst}", 150_000,
                          start_time=1e-3) for k in range(2)])
    queue_owner = (np.arange(net.n_queues) // net._pod_block).tolist()
    seen = {}
    for _ in range(steps):
        _admit(net)
        want = _oracle_step(net, owner_tables(net), queue_owner)
        net.advance(cfg.step_dt)
        _assert_stepped(net, want)
        # the merge's first-appearance scratch is clean between steps
        assert (net._first_seen == np.iinfo(np.int32).max).all()
        _merge(seen, want["seen"])
    return seen


@settings(max_examples=8, deadline=None)
@given(n_flows=st.integers(1, 40), seed=st.integers(0, 2**16),
       steps=st.integers(1, 40))
def test_fattree_step_matches_plain_loop_oracle(n_flows, seed, steps):
    """The whole Δt with the own-pod-first merge (``tests/test_shard.py``
    has the flow phase alone, on larger draws)."""
    _fattree_steps(n_flows, seed, steps)


def test_fattree_oracle_run_meets_every_corner():
    """The fixed run the live-queue mutation checks were made on
    (CHANGES.md): it reaches a backlog no active path crosses."""
    seen = _fattree_steps(40, 11, 80)
    assert all(seen.values()), seen


# -------------------------------------------------- types and pinned digests
def _observables(net):
    return {"finished": [(f.flow_id, f.finish_time)
                         for f in net.finished_flows],
            "latencies": list(net.latencies), "q_len": net.q_len.copy(),
            "stats": pinned_form(net.queue_stats(), net)}


def _assert_float64_records(net):
    assert net.finished_flows and net.latencies
    assert {type(f.finish_time) for f in net.finished_flows} == {np.float64}
    assert {type(delay) for _, delay in net.latencies} == {np.float64}


#: ``fingerprint(_observables(net))`` at the parent of the shared-kernel
#: change (commit 3d79a2d): ``FluidNetwork._step_fast`` and
#: ``BatchFluidNetwork._batch_step``.  The digest is ``repr``-based, so it
#: moves if a finish time or latency sample turns into a Python float.
_PINNED = {
    "solo": "b195f9c8e394ee4c242d63e4896ca3bde54b1e5e727625193145815366fa933a",
    "batch_replica":
        "fca48254847b2620f30f15c011094e81f70fed8a4498d1d5c1f40cfb4bf60d68",
}


def test_solo_records_stay_float64_and_digest_is_pinned():
    net = FluidNetwork(CFG, seed=4)
    net.set_ecn_all(TIGHT)
    _load(net, 40, 4)
    net.advance(0.004)
    _assert_float64_records(net)
    assert fingerprint(_observables(net)) == _PINNED["solo"]


def test_batch_replica_records_stay_float64_and_digest_is_pinned():
    batch = BatchFluidNetwork(CFG, seeds=[4, 5, 6],
                              ecn_configs=[LAX, TIGHT, LAX])
    for r, net in enumerate(batch.views()):
        _load(net, 30 + 5 * r, 4 + r)
    batch.advance(0.004)
    _assert_float64_records(batch.view(1))
    assert fingerprint(_observables(batch.view(1))) == _PINNED["batch_replica"]


def test_fattree_records_stay_float64():
    cfg = FatTreeConfig.small()
    net = ShardedFluidNetwork(cfg, seed=4)
    _load(net, 40, 4)
    net.advance(0.004)
    _assert_float64_records(net)
