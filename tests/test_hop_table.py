"""The hop table and the NIC cap against plain loops, on their corners.

:func:`~repro.netsim.fluid.queue_phase` writes, per queue of a window,
the three values the feedback reads — ``1 − p_mark``, ``srv_ratio`` and
``q_len / q_cap`` — into the window's hop table, whose last column is
the identity ``(1.0, 1.0, 0.0)`` that a ``-1`` path pad reads.
:func:`~repro.netsim.fluid.feedback_phase` gathers it along every path
at once.  Here each flow's mark fraction, bottleneck and queueing delay
are rebuilt with Python loops over Python floats, from the queue state
and the flow's own hops only, and what the feedback leaves — alpha
(carries the mark fraction), bytes remaining (the bottleneck), the
returned queueing delay, rate and the finished flags — must match bit
for bit: 1-hop intra-leaf paths, 3-hop paths, fat-tree 5-hop paths, one
flow, no flow, and a window block with no queues.

Also the NIC cap: scaling every host by ``line / fmax(per_src, line)``
must leave the flows ``(per_src > line).any()`` and a masked divide
left alone, NaN sums included, and scale the others to the same bits.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.netsim.fluid import (FlowTable, FluidConfig, _QueueWindow,
                                _StepScalars, feedback_phase, flow_phase,
                                queue_phase)

#: small buffers and low thresholds, so queues overflow and mark fully
CFG = dataclasses.replace(FluidConfig.small(), switch_buffer_bytes=150_000)
DT = CFG.step_dt
LINE = CFG.host_rate_bps / 8.0


def _window(rng, n):
    """A window of ``n`` queues in random states, some past ``kmax`` and
    some past the buffer, integrated once; returns it and the plain-loop
    per-queue ``(p_mark, srv_ratio, q_len / q_cap)`` of that step."""
    q_len = rng.choice([0.0, 1e3, 4e4, 1.2e5, 1.6e5], size=n)
    q_cap = rng.choice([LINE, 4 * LINE], size=n)
    kmin = rng.choice([5e3, 2e4], size=n)
    kmax = kmin + rng.choice([0.0, 3e4, 1e5], size=n)
    pmax = rng.choice([0.01, 0.2, 1.0], size=n)
    arrival = rng.choice([0.0, 0.5, 1.0, 3.0], size=n) * q_cap
    acc = np.zeros((4, n))
    q = _QueueWindow(q_len.copy(), q_cap, kmin, kmax, pmax, acc)
    queue_phase(q, arrival, _StepScalars(CFG, DT))
    want = []
    buf = CFG.switch_buffer_bytes
    for i in range(n):
        cap = float(q_cap[i])
        new = max(float(q_len[i]) + (float(arrival[i]) - cap) * DT, 0.0)
        new = min(new, buf)
        p = min(max((new - float(kmin[i]))
                    / max(float(kmax[i]) - float(kmin[i]), 1.0), 0.0),
                1.0) * float(pmax[i])
        if new >= float(kmax[i]):
            p = 1.0
        want.append((p, cap / max(float(arrival[i]), cap), new / cap))
    return q, want


def _flows(rng, n_queues, hops, lengths):
    """A one-owner table with one flow per entry of ``lengths`` (its hop
    count) on random queues, some nearly done; returns the table, the
    rows, each flow's hops and the hop-major ``(hops, k)`` path matrix."""
    tab = FlowTable(1, 4, hops, "f_spine")
    k = len(lengths)
    paths = np.full((k, hops), -1, dtype=np.int64)
    routes = []
    for i, n in enumerate(lengths):
        route = rng.integers(n_queues, size=n).tolist()
        paths[i, :n] = route
        routes.append(route)
    if k:
        tab.admit([0] * k, np.arange(k, dtype=np.uint64),
                  np.zeros(k, np.int64), np.zeros(k, np.int64),
                  rng.choice([10.0, 2e4, 5e5], size=k), LINE, paths,
                  np.full(k, -1))
        tab.f_rate[:k] = rng.uniform(0.01, 1.0, size=k) * LINE
        tab.f_alpha[:k] = rng.uniform(0.0, 1.0, size=k)
    return tab, np.arange(k), routes, paths.T.copy()


def _check(q, want, tab, at, routes, path):
    """Run the feedback on ``tab``'s rows ``at`` and compare it with the
    plain loops over each flow's own hops."""
    cfg, k = CFG, len(at)
    rate = tab.f_rate[at].copy()
    send = rate * 0.75
    before = {name: getattr(tab, name)[at].tolist()
              for name in ("f_rate", "f_alpha", "f_remaining")}
    qdelay, done = feedback_phase(_StepScalars(cfg, DT), tab, at, rate,
                                  send, path, q.hop)
    assert qdelay.shape == (k,)
    finished = []
    for i, hops in enumerate(routes):
        p, srv, delay = want[hops[0]]
        no_mark, bottleneck, qd = 1.0 - p, srv, delay
        for h in hops[1:]:
            p, srv, delay = want[h]
            no_mark *= 1.0 - p
            bottleneck = min(bottleneck, srv)
            qd += delay
        mark_frac = 1.0 - no_mark
        alpha = (1.0 - cfg.g) * before["f_alpha"][i] + cfg.g * mark_frac
        r = before["f_rate"][i]
        if mark_frac > 1e-3:
            r = r * (1.0 - alpha * 0.5 * cfg.md_gain * mark_frac)
        else:
            r = r + cfg.ai_fraction * LINE
        r = min(max(r, cfg.min_rate_fraction * LINE), LINE)
        remaining = before["f_remaining"][i] - float(send[i]) * bottleneck * DT
        finished.append(remaining <= 0.0)
        for name, value in (("f_alpha", alpha), ("f_rate", r),
                            ("f_remaining",
                             0.0 if remaining <= 0.0 else remaining)):
            got = getattr(tab, name)[at[i]]
            assert got.tobytes() == np.float64(value).tobytes(), (name, i)
        assert qdelay[i].tobytes() == np.float64(qd).tobytes(), i
        assert bool(tab.f_active[at[i]]) == (remaining > 0.0)
    if any(finished):
        assert done.tolist() == finished
    else:
        assert done is None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), n_queues=st.integers(1, 12),
       shape=st.sampled_from([(3, (1, 3)), (5, (1, 3, 5))]),
       n_flows=st.integers(0, 8))
def test_feedback_matches_plain_loops(seed, n_queues, shape, n_flows):
    """Leaf–spine paths (``H = 3``: 1-hop intra-leaf, 3-hop) and
    fat-tree paths (``H = 5``: 1, 3 and 5 hops), padded with ``-1``."""
    rng = np.random.default_rng(seed)
    hops, lengths = shape
    q, want = _window(rng, n_queues)
    tab, at, routes, path = _flows(
        rng, n_queues, hops, rng.choice(lengths, size=n_flows).tolist())
    _check(q, want, tab, at, routes, path)


def test_identity_column_and_every_corner():
    """The identity column, then each corner on its own: one 1-hop flow
    (the reductions run along the hop axis alone), a mix of 1- and 3-hop
    flows with one finishing, 1-, 3- and 5-hop fat-tree flows, one flow
    of nine hops (where a pairwise sum over the hop axis would round
    differently from the hop loop), no active flow, and a window block
    with no queues."""
    rng = np.random.default_rng(3)
    q, want = _window(rng, 6)
    assert q.hop.shape == (3, 7)
    assert q.hop[:, 6].tolist() == [1.0, 1.0, 0.0]
    assert [tuple(col) for col in q.hop[:, :6].T.tolist()] == \
        [(1.0 - p, srv, d) for p, srv, d in want]
    for hops, lengths in ((3, [1]), (3, [1, 3, 3, 1]), (5, [5, 1, 3, 5]),
                          (5, [5]), (9, [9])):
        tab, at, routes, path = _flows(rng, 6, hops, lengths)
        tab.f_remaining[0] = 1.0          # finishes on this step
        _check(q, want, tab, at, routes, path)
        assert not tab.f_active[0]
    tab, at, routes, path = _flows(rng, 6, 3, [])
    _check(q, want, tab, at, routes, path)
    empty, none = _window(rng, 0)
    assert empty.hop.tolist() == [[1.0], [1.0], [0.0]]
    tab, at, routes, path = _flows(rng, 1, 5, [])
    _check(empty, none, tab, at, routes, path)


# ------------------------------------------------------------- NIC cap
def _capped_by_any(src, rate, line, n_hosts):
    """The NIC cap as ``(per_src > line).any()`` selected it."""
    per_src = np.bincount(src, weights=rate, minlength=n_hosts)
    over = per_src > line
    if not over.any():
        return rate
    scale = np.ones(n_hosts)
    scale[over] = line / per_src[over]
    return rate * scale[src]


def test_nic_cap_selects_what_any_selected_with_nan_sums():
    """A NaN host sum is never over line rate: next to a host that is
    over, beside hosts at exactly and under line rate, and on its own."""
    line = 10.0
    src = np.array([0, 0, 1, 1, 2, 3, 3])
    cases = {
        "nan_and_over": [np.nan, 1.0, 8.0, 9.0, 4.0, 6.0, 4.0],
        "nan_alone": [np.nan, 1.0, 2.0, 3.0, 4.0, 5.0, 5.0],
        "all_nan": [np.nan] * 7,
        "inf_over": [np.inf, 1.0, 8.0, 9.0, 4.0, 6.0, 4.0],
        "none_over": [1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 5.0],
    }
    path = np.zeros((1, len(src)), dtype=np.int64)
    for name, values in cases.items():
        rate = np.array(values)
        with np.errstate(invalid="ignore"):     # inf * 0.0
            want = _capped_by_any(src, rate, line, 4)
            send, _, _ = flow_phase(src, rate, path, line, 4, 1)
        assert send.tobytes() == want.tobytes(), name
        # the hosts over line rate, and only they, were scaled
        assert ((send != rate) & ~np.isnan(rate)).tolist() == \
            ((want != rate) & ~np.isnan(rate)).tolist(), name
