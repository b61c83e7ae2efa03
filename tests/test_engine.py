"""Tests for the discrete-event engine."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.engine import Simulator


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending() == 0
    assert sim.peek_time() is None


def test_schedule_and_run_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(3.0, order.append, "c")
    n = sim.run()
    assert n == 3
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_fifo_tiebreak():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_run_until_horizon_stops_and_advances_clock():
    sim = Simulator()
    hits = []
    sim.schedule(1.0, hits.append, 1)
    sim.schedule(5.0, hits.append, 5)
    sim.run(until=2.0)
    assert hits == [1]
    assert sim.now == 2.0       # clock advanced to the horizon
    sim.run(until=10.0)
    assert hits == [1, 5]


def test_run_until_with_empty_heap_advances_clock():
    sim = Simulator()
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_cancel_event():
    sim = Simulator()
    hits = []
    ev = sim.schedule(1.0, hits.append, "x")
    ev.cancel()
    sim.run()
    assert hits == []
    assert ev.cancelled


def test_cancelled_event_drops_references():
    sim = Simulator()
    payload = object()
    ev = sim.schedule(1.0, lambda p: None, payload)
    ev.cancel()
    assert ev.args == ()


def test_schedule_in_past_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    hits = []

    def chain(n):
        hits.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 1)
    sim.run()
    assert hits == [1, 2, 3]
    assert sim.now == 3.0


def test_max_events_cap():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    n = sim.run(max_events=4)
    assert n == 4
    assert sim.pending() == 6


def test_peek_time_skips_cancelled():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    ev.cancel()
    assert sim.peek_time() == 2.0


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    sim.run()
    assert sim.events_processed == 5


# ------------------------------------------------------------- order oracle
class _SortedListSim:
    """The calendar as a plain list kept sorted by ``(time, seq)``."""

    def __init__(self):
        self.now = 0.0
        self.live = []          # [time, seq, tag, rearm, period]
        self.seq = 0
        self.log = []

    def schedule(self, delay, rearm, period):
        tag = self.seq
        self.live.append([self.now + delay, self.seq, tag, rearm, period])
        self.seq += 1

    def cancel(self, tag):
        self.live = [e for e in self.live if e[2] != tag]

    def run(self, until=math.inf, max_events=math.inf):
        fired = 0
        while self.live and fired < max_events:
            self.live.sort(key=lambda e: (e[0], e[1]))
            time, _, tag, rearm, period = self.live[0]
            if time > until:
                break
            del self.live[0]
            self.now = time
            self.log.append((tag, time))
            if rearm:
                self.schedule(period, rearm - 1, period)
            fired += 1
        if until < math.inf:
            self.now = max(self.now, until)
        return fired


_TICK = 0.125       # exact in binary, so equal times really tie

_OPS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 8), st.integers(0, 3),
              st.integers(0, 4)),
    st.tuples(st.just("cancel"), st.integers(0, 10**6)),
    st.tuples(st.just("run"), st.integers(0, 8)),
    st.tuples(st.just("run_n"), st.integers(1, 5)),
), min_size=1, max_size=50)


@given(ops=_OPS)
@settings(max_examples=150, deadline=None)
def test_event_order_matches_sorted_time_seq_list(ops):
    """A random schedule / cancel / run script — with timers that cancel
    their own fired handle and re-arm from inside the callback, as the
    transports do — executes in the order of a list sorted by
    ``(time, seq)``, and ``pending`` / ``peek_time`` / ``now`` agree with
    that list after every operation."""
    sim, model = Simulator(), _SortedListSim()
    handles, log = [], []

    def arm(delay, rearm, period):
        tag = len(handles)
        handles.append(sim.schedule(delay, fire, tag, rearm, period))

    def fire(tag, rearm, period):
        log.append((tag, sim.now))
        handles[tag].cancel()           # already fired: must change nothing
        if rearm:
            arm(period, rearm - 1, period)

    for op, *args in ops:
        if op == "schedule":
            delay, rearm, period = args
            arm(delay * _TICK, rearm, period * _TICK)
            model.schedule(delay * _TICK, rearm, period * _TICK)
        elif op == "cancel" and handles:
            tag = args[0] % len(handles)
            handles[tag].cancel()
            model.cancel(tag)
        elif op == "run":
            until = sim.now + args[0] * _TICK
            assert sim.run(until=until) == model.run(until=until)
        elif op == "run_n":
            assert sim.run(max_events=args[0]) == \
                model.run(max_events=args[0])
        assert log == model.log
        assert sim.now == model.now
        assert sim.pending() == sim._scan_pending() == len(model.live)
        assert sim.peek_time() == min((e[0] for e in model.live),
                                      default=None)
    sim.run()
    model.run()
    assert log == model.log
    assert sim.pending() == 0
    assert sim.events_processed == len(log)
