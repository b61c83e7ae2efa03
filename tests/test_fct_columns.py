"""Columnar FCT statistics against the per-flow reference.

``fct_statistics`` and ``normalized_fcts`` read the finished flows once
into float64 columns and take the buckets as masks.  The reference below
is the per-flow form they replaced — :attr:`Flow.fct` over
:meth:`Flow.ideal_fct` one record at a time, one list per bucket — and
every ``FCTStats`` field must match it bit for bit.
"""

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fct import (ELEPHANT_BUCKET_MIN, MICE_BUCKET_MAX,
                                FCTStats, fct_statistics, normalized_fcts)
from repro.netsim.flow import Flow


def reference_normalized_fcts(flows, bottleneck_bps, base_rtt=0.0):
    out: List[float] = []
    for f in flows:
        if f.fct is None:
            continue
        ideal = f.ideal_fct(bottleneck_bps, base_rtt)
        if ideal <= 0:
            continue
        out.append(f.fct / ideal)
    return np.asarray(out, dtype=np.float64)


def reference_fct_statistics(flows, bottleneck_bps, base_rtt=0.0,
                             mice_max=MICE_BUCKET_MAX,
                             elephant_min=ELEPHANT_BUCKET_MIN):
    finished = [f for f in flows if f.fct is not None]
    buckets: Dict[str, List[Flow]] = {"overall": finished,
                                      "mice": [], "elephant": []}
    for f in finished:
        if f.size_bytes <= mice_max:
            buckets["mice"].append(f)
        if f.size_bytes >= elephant_min:
            buckets["elephant"].append(f)
    if not buckets["elephant"]:
        buckets["elephant"] = [f for f in finished if f.is_elephant]
    return {name: FCTStats.from_values(
        reference_normalized_fcts(fl, bottleneck_bps, base_rtt))
        for name, fl in buckets.items()}


def _bits(stats: FCTStats) -> bytes:
    return np.array([stats.avg, stats.p50, stats.p95, stats.p99]).tobytes()


def assert_same(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].count == want[name].count, name
        assert _bits(got[name]) == _bits(want[name]), name


_SIZES = st.sampled_from([1, 999, 50_000, 100_000, 100_001, 1_000_000,
                          1_000_001, 3_500_000, 9_999_999, 10_000_000,
                          25_000_000])
_FLOW = st.tuples(
    st.one_of(_SIZES, st.integers(1, 30_000_000)),
    st.floats(0.0, 1.0, allow_nan=False),
    # None: still running; np.float64, as the fluid networks write it
    st.one_of(st.none(), st.floats(0.0, 0.5, allow_nan=False)),
    st.booleans())


def _flows(rows):
    out = []
    for i, (size, start, fct, np_finish) in enumerate(rows):
        f = Flow(i, "h0", "h1", size, start_time=start)
        if fct is not None:
            finish = start + fct
            f.finish_time = np.float64(finish) if np_finish else finish
        out.append(f)
    return out


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_FLOW, max_size=60),
       bps=st.sampled_from([1e9, 10e9, 25e9, 40e9, 7]),
       rtt=st.sampled_from([0.0, 8e-6, 1.3e-5, -1e-3]))
def test_columns_equal_the_per_flow_reference(rows, bps, rtt):
    flows = _flows(rows)
    assert_same(fct_statistics(flows, bps, rtt),
                reference_fct_statistics(flows, bps, rtt))
    got = normalized_fcts(flows, bps, rtt)
    want = reference_normalized_fcts(flows, bps, rtt)
    assert got.tobytes() == want.tobytes()


def test_unfinished_flows_and_the_elephant_fallback():
    flows = _flows([(50_000, 0.0, 1e-3, True), (2_000_000, 0.1, 5e-3, True),
                    (3_000_000, 0.2, None, False), (20_000_000, 0.0, None,
                                                    False)])
    got = fct_statistics(flows, 10e9, 8e-6)
    assert_same(got, reference_fct_statistics(flows, 10e9, 8e-6))
    # nothing finished reaches 10 MB: the elephant bucket is the >1 MB class
    assert got["elephant"].count == 1
    assert got["overall"].count == 2


def test_an_empty_population():
    for flows in ([], _flows([(5_000, 0.0, None, False)])):
        got = fct_statistics(flows, 10e9)
        assert_same(got, reference_fct_statistics(flows, 10e9))
        assert {s.count for s in got.values()} == {0}
        assert normalized_fcts(flows, 10e9).shape == (0,)


def test_a_bad_rate_raises_only_with_a_finished_flow():
    assert fct_statistics([], 0.0)["overall"].count == 0
    with pytest.raises(ValueError, match="bottleneck rate"):
        fct_statistics(_flows([(5_000, 0.0, 1e-3, False)]), 0.0)
