"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.action import ActionCodec
from repro.core.config import PETConfig
from repro.core.reward import RewardComputer
from repro.core.state import HistoryWindow, StateBuilder, TelemetryColumns
from repro.netsim.ecn import ECNConfig
from repro.netsim.engine import Simulator
from repro.netsim.network import QueueStats
from repro.netsim.packet import Packet
from repro.netsim.queueing import ByteQueue
from repro.rl.gae import compute_gae, discounted_returns
from repro.rl.policy import softmax
from repro.traffic.cdf import PiecewiseCDF


# ---------------------------------------------------------------- ECN RED
@given(kmin=st.integers(0, 10**6),
       span=st.integers(1, 10**6),
       pmax=st.floats(0.0, 1.0),
       q=st.floats(0, 10**7))
def test_red_probability_bounds(kmin, span, pmax, q):
    cfg = ECNConfig(kmin, kmin + span, pmax)
    p = cfg.marking_probability(q)
    assert 0.0 <= p <= 1.0


@given(kmin=st.integers(0, 10**5), span=st.integers(1, 10**5),
       pmax=st.floats(0.01, 1.0),
       q1=st.floats(0, 2 * 10**5), q2=st.floats(0, 2 * 10**5))
def test_red_probability_monotone_in_qlen(kmin, span, pmax, q1, q2):
    cfg = ECNConfig(kmin, kmin + span, pmax)
    lo, hi = sorted((q1, q2))
    assert cfg.marking_probability(lo) <= cfg.marking_probability(hi) + 1e-12


# ---------------------------------------------------------------- queue
@given(sizes=st.lists(st.integers(1, 5_000), min_size=1, max_size=50))
def test_queue_byte_conservation(sizes):
    """enqueued == dequeued + dropped + resident, in bytes."""
    q = ByteQueue(capacity_bytes=10_000)
    for i, s in enumerate(sizes):
        q.enqueue(Packet(flow_id=i, src="a", dst="b", size_bytes=s), now=0.0)
    drained = 0
    while True:
        pkt = q.dequeue(1.0)
        if pkt is None:
            break
        drained += pkt.size_bytes
    c = q.counters
    assert c.enqueued_bytes == drained
    assert c.enqueued_bytes + c.dropped_bytes == sum(sizes)
    assert q.qlen_bytes == 0


@given(sizes=st.lists(st.integers(1, 2_000), min_size=1, max_size=30))
def test_queue_fifo_property(sizes):
    q = ByteQueue(capacity_bytes=10**9)
    for i, s in enumerate(sizes):
        q.enqueue(Packet(flow_id=i, src="a", dst="b", size_bytes=s), 0.0)
    out = []
    while len(q):
        out.append(q.dequeue(0.0).flow_id)
    assert out == sorted(out)


# ---------------------------------------------------------------- CDF
@st.composite
def cdf_knots(draw):
    n = draw(st.integers(2, 8))
    vals = sorted(draw(st.lists(st.integers(1, 10**7), min_size=n, max_size=n,
                                unique=True)))
    probs = sorted(draw(st.lists(st.floats(0.0, 0.999), min_size=n - 1,
                                 max_size=n - 1)))
    return list(zip(vals, [*probs, 1.0]))


@given(knots=cdf_knots(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50)
def test_cdf_samples_within_support(knots, seed):
    cdf = PiecewiseCDF(knots)
    rng = np.random.default_rng(seed)
    s = cdf.sample(rng, 100)
    assert np.all(s >= knots[0][0] - 1e-9)
    assert np.all(s <= knots[-1][0] + 1e-9)


@given(knots=cdf_knots(), q1=st.floats(0, 1), q2=st.floats(0, 1))
@settings(max_examples=50)
def test_cdf_quantile_monotone(knots, q1, q2):
    cdf = PiecewiseCDF(knots)
    lo, hi = sorted((q1, q2))
    assert cdf.quantile(lo) <= cdf.quantile(hi) + 1e-9


@given(knots=cdf_knots())
@settings(max_examples=50)
def test_cdf_mean_within_support(knots):
    cdf = PiecewiseCDF(knots)
    assert knots[0][0] - 1e-6 <= cdf.mean() <= knots[-1][0] + 1e-6


# ---------------------------------------------------------------- GAE
@given(rewards=st.lists(st.floats(-10, 10), min_size=1, max_size=20),
       gamma=st.floats(0.0, 1.0), lam=st.floats(0.0, 1.0))
@settings(max_examples=80)
def test_gae_returns_equal_adv_plus_values(rewards, gamma, lam):
    n = len(rewards)
    values = np.linspace(-1, 1, n)
    adv, ret = compute_gae(rewards, values, [False] * n, 0.5, gamma, lam)
    np.testing.assert_allclose(ret, adv + values, atol=1e-9)


@given(rewards=st.lists(st.floats(-5, 5), min_size=1, max_size=15),
       gamma=st.floats(0.0, 0.999))
@settings(max_examples=80)
def test_gae_lambda_one_matches_discounted_returns(rewards, gamma):
    n = len(rewards)
    values = np.zeros(n)
    adv, _ = compute_gae(rewards, values, [False] * n, 0.0, gamma, 1.0)
    rtg = discounted_returns(rewards, [False] * n, 0.0, gamma)
    np.testing.assert_allclose(adv, rtg, atol=1e-7)


# ---------------------------------------------------------------- softmax
@given(logits=st.lists(st.floats(-50, 50), min_size=2, max_size=16))
def test_softmax_is_distribution(logits):
    p = softmax(np.array([logits]))
    assert p.shape == (1, len(logits))
    assert abs(p.sum() - 1.0) < 1e-9
    assert np.all(p >= 0)


# ---------------------------------------------------------------- action codec
@given(alpha=st.floats(1.0, 100.0), n=st.integers(0, 12))
def test_threshold_formula_positive_monotone(alpha, n):
    t = ActionCodec.threshold_bytes(alpha, n)
    assert t > 0
    assert ActionCodec.threshold_bytes(alpha, n + 1) > t


@given(idx=st.integers(0, 39))
def test_compact_codec_decode_total(idx):
    codec = ActionCodec.compact()
    cfg = codec.decode(idx)
    assert cfg.kmin_bytes <= cfg.kmax_bytes
    assert 0 < cfg.pmax <= 1.0


# ---------------------------------------------------------------- state/reward
def _stats(qlen, tx, marked, cap=1e9, avg_qlen=None):
    return QueueStats(switch="s", interval=1e-3, qlen_bytes=qlen,
                      max_port_qlen_bytes=qlen,
                      avg_qlen_bytes=qlen if avg_qlen is None else avg_qlen,
                      tx_bytes=tx, tx_marked_bytes=marked, dropped_pkts=0,
                      capacity_bps=cap, ecn=ECNConfig(1000, 2000, 0.5))


@given(qlen=st.floats(0, 1e8), tx=st.integers(0, 10**8),
       marked=st.integers(0, 10**8), incast=st.floats(0, 1000),
       ratio=st.floats(-1, 2))
@settings(max_examples=100)
def test_state_features_always_normalized(qlen, tx, marked, incast, ratio):
    arr = StateBuilder(PETConfig()).build_fleet(
        TelemetryColumns([_stats(qlen, tx, marked)]), np.array([incast]),
        np.array([ratio]))
    assert np.all(arr >= 0.0) and np.all(arr <= 1.0)


@given(qlen=st.floats(0, 1e9), tx=st.integers(0, 10**9))
@settings(max_examples=100)
def test_reward_bounded_in_default_mode(qlen, tx):
    r = RewardComputer(PETConfig()).compute_fleet(
        TelemetryColumns([_stats(qlen, tx, 0)]))[0]
    assert 0.0 <= r <= 1.0


@given(k=st.integers(1, 8), pushes=st.integers(0, 20))
def test_history_window_obs_dim_invariant(k, pushes):
    w = HistoryWindow(k)
    for i in range(pushes):
        w.push(np.full(6, float(i % 3) / 3))
    assert w.observation().shape == (1, 6 * k)


# ---------------------------------------------------------------- engine
@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40))
def test_engine_processes_in_time_order(delays):
    sim = Simulator()
    seen = []
    for d in delays:
        sim.schedule(d, lambda t=d: seen.append(t))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)
