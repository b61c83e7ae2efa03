"""Oracles for the fleet observer that the code under test did not write.

The columnar NCM is checked against a plain-dict model of paper §4.5.1
(one list of slot dicts per switch, merged latest-wins, swept exactly as
the text says); the whole-fleet state, reward and history against Eq. 2-3 and 6-8
written out per record (:func:`_features`, :func:`_reward`) and a plain
list; the fluid snapshot's ``rows()`` against a plain loop over its
paths.
Everything is compared exactly — the observer feeds learners whose
weights are fingerprinted.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.acc import ACCConfig, ACCController
from repro.core.config import PETConfig
from repro.core.ncm import FleetNCM
from repro.core.observer import FleetObserver
from repro.core.pet import PETController
from repro.core.reward import RewardComputer
from repro.core.state import HistoryWindow, StateBuilder, TelemetryColumns
from repro.netsim.ecn import ECNConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork, _ObsSnapshot
from repro.netsim.network import PacketNetwork
from repro.netsim.topology import TopologyConfig
from tests.flow_rows import build_rows, record, switch_rows

MB = 1_000_000          # the DevoFlow mice/elephant threshold
SWITCHES = ["s0", "s1", "s2"]


# ------------------------------------------------------------------ the model
class DictNCM:
    """§4.5.1 for one switch, as plainly as it can be written."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.slots = []              # oldest first; {fid: (src, dst, bytes, t)}
        self.ingests = 0
        self.scheduled = self.threshold = self.pruned = 0

    def entries(self):
        return sum(len(slot) for slot in self.slots)

    def analyze(self):
        merged = {}
        for slot in self.slots:                  # later slots win
            merged.update(slot)
        senders = {}
        for src, dst, _, _ in merged.values():
            senders.setdefault(dst, set()).add(src)
        incast = max((len(v) for v in senders.values()), default=0)
        mice = sum(1 for _, _, nbytes, _ in merged.values() if nbytes <= MB)
        ratio = mice / len(merged) if merged else 0.5
        return incast, ratio, len(merged)

    def ingest(self, flows):
        self.slots.append(dict(flows))
        self.ingests += 1
        out = self.analyze()
        cfg = self.cfg
        if self.ingests % max(cfg.ncm_cleanup_interval_slots, 1) == 0:
            old = self.slots[:-cfg.history_k]
            self.pruned += sum(len(slot) for slot in old)
            self.slots = self.slots[-cfg.history_k:]
            self.scheduled += 1
        if 48 * self.entries() > cfg.ncm_memory_threshold_bytes:
            to_drop = int(self.entries() * cfg.ncm_threshold_drop_fraction)
            self.pruned += to_drop
            for slot in self.slots:              # oldest slot first
                # oldest observation first; ties keep insertion order
                for fid in sorted(slot, key=lambda f: slot[f][3]):
                    if to_drop == 0:
                        break
                    del slot[fid]
                    to_drop -= 1
            self.slots = [slot for slot in self.slots if slot]
            self.threshold += 1
        return out


def _features(cfg, rec, incast, ratio):
    """Eq. 2's six features of one record, normalized to [0, 1]; the
    Fig. 9 arms zero D_incast / R_flow."""
    qn = max(cfg.qlen_norm_bytes, 1.0)
    bw = max(rec.capacity_bps, 1.0)
    return [min(rec.qlen_bytes / qn, 1.0),
            min(rec.tx_rate_bps / bw, 1.0),
            min(rec.tx_marked_rate_bps / bw, 1.0),
            0.0 if rec.ecn is None else min(rec.ecn.kmax_bytes / qn, 1.0),
            (min(incast / max(cfg.incast_norm, 1.0), 1.0)
             if cfg.use_incast else 0.0),
            float(np.clip(ratio, 0.0, 1.0)) if cfg.use_flow_ratio else 0.0]


def _reward(cfg, rec):
    """Eq. 6-8 for one record: utilization, and La over the per-queue
    average occupancy (bounded, or the literal reciprocal)."""
    avg_q = max(rec.avg_qlen_per_queue, 0.0)
    if cfg.raw_reciprocal_reward:
        latency = 1.0 / max(avg_q, 1_000.0) * 1_000.0
    else:
        latency = 1.0 / (1.0 + avg_q / max(cfg.reward_qlen_ref_bytes, 1.0))
    return cfg.beta1 * rec.utilization + cfg.beta2 * latency


def _check_tick(fleet, models, present, got):
    rows = [SWITCHES.index(s) for s in present]
    want = [models[s].last for s in present]
    assert got[0].tolist() == [w[0] for w in want]
    assert got[1].tolist() == [w[1] for w in want]
    assert got[2].tolist() == [w[2] for w in want]
    for i, s in enumerate(SWITCHES):
        m = models[s]
        assert fleet.memory_bytes()[i] == 48 * m.entries(), s
        assert fleet.retained_slots()[i] == len(m.slots), s
        assert (fleet.cleanups_scheduled[i], fleet.cleanups_threshold[i],
                fleet.entries_pruned[i]) == (m.scheduled, m.threshold,
                                             m.pruned), s
    assert rows == sorted(rows)


_HOSTS = st.integers(0, 4)
_BYTES = st.sampled_from([1, 900, MB - 1, MB, MB + 1, 5 * MB])
_ENTRY = st.tuples(_HOSTS, _HOSTS, _BYTES, st.sampled_from([0.0, 1.0, 2.0]))
_SLOT = st.dictionaries(st.integers(0, 7), _ENTRY, max_size=6)
#: per tick and switch: absent (None) or the slot it reports
_TICK = st.lists(st.one_of(st.none(), _SLOT), min_size=3, max_size=3)
#: per switch: its record's rows sit in the tick's shared table (True) or
#: in a table of its own (False)
_SOURCES = st.lists(st.booleans(), min_size=3, max_size=3)
_CONFIG = st.builds(
    PETConfig, history_k=st.integers(1, 3),
    ncm_cleanup_interval_slots=st.integers(1, 4),
    ncm_memory_threshold_bytes=st.sampled_from([48 * 3, 48 * 7, 10**9]),
    ncm_threshold_drop_fraction=st.sampled_from([0.25, 0.5, 0.9]))


def _run_against_model(cfg, ticks, shared=(False, False, False)):
    fleet = FleetNCM(SWITCHES, cfg)
    models = {s: DictNCM(cfg) for s in SWITCHES}
    for tick in ticks:
        present = [s for s, slot in zip(SWITCHES, tick) if slot is not None]
        if not present:
            continue
        # shared-table switch indices deliberately differ from fleet rows
        table = build_rows({10 - i: slot for i, slot in enumerate(tick)
                            if slot is not None and shared[i]})
        records = []
        for i, (s, entries) in enumerate(zip(SWITCHES, tick)):
            if entries is None:
                continue
            records.append(record(s, flow_rows=(table, 10 - i))
                           if shared[i] else record(s, entries))
            models[s].last = models[s].ingest(entries)
        rows = np.array([SWITCHES.index(s) for s in present])
        _check_tick(fleet, models, present, fleet.ingest(records, rows))
    return fleet, models


@given(cfg=_CONFIG, ticks=st.lists(_TICK, min_size=1, max_size=14),
       shared=_SOURCES)
@settings(max_examples=300, deadline=None)
def test_columnar_ncm_equals_the_dict_model(cfg, ticks, shared):
    _run_against_model(cfg, ticks, shared)


def _slot(*fids, src=0, dst=1, nbytes=10, t=0.0):
    return {fid: (src + fid, dst, nbytes, t) for fid in fids}


class TestCasesThatBreakANaivePort:
    def test_switch_absent_from_one_tick(self):
        """s1 sits tick 2 out: no slot, no count, and its periodic sweep
        then falls on a different tick than the others'."""
        cfg = PETConfig(history_k=1, ncm_cleanup_interval_slots=2,
                        ncm_memory_threshold_bytes=10**9)
        ticks = [[_slot(0), _slot(0), _slot(0)],
                 [_slot(1), None, _slot(1)],
                 [_slot(2), _slot(2), _slot(2)],
                 [_slot(3), _slot(3), _slot(3)]]
        fleet, models = _run_against_model(cfg, ticks, (True, True, False))
        assert fleet.cleanups_scheduled.tolist() == [2, 1, 2]
        assert fleet.retained_slots().tolist() == [1, 2, 1]

    def test_threshold_sweep_on_one_switch_only(self):
        """s0 bursts past the budget and is swept; the others' retention
        is untouched, so the fleet no longer shares one slot list."""
        cfg = PETConfig(history_k=8, ncm_cleanup_interval_slots=100,
                        ncm_memory_threshold_bytes=48 * 6,
                        ncm_threshold_drop_fraction=0.5)
        ticks = [[_slot(0, 1, 2), _slot(0), _slot()],
                 [_slot(3, 4, 5), _slot(1), _slot()],
                 [_slot(6, 7), _slot(0), _slot(2)]]
        fleet, models = _run_against_model(cfg, ticks, (True, True, True))
        assert fleet.cleanups_threshold.tolist() == [1, 0, 0]
        assert fleet.retained_slots().tolist() == [2, 3, 3]
        assert fleet.entries_pruned.tolist() == [4, 0, 0]

    def test_sweep_orders_a_slot_by_last_seen(self):
        """Inside the oldest slot the entry seen longest ago goes first,
        whatever its position in the dict."""
        cfg = PETConfig(history_k=8, ncm_cleanup_interval_slots=100,
                        ncm_memory_threshold_bytes=48 * 3,
                        ncm_threshold_drop_fraction=0.5)
        slot = {0: (0, 9, 10, 5.0), 1: (1, 9, 10, 1.0), 2: (2, 9, 10, 3.0),
                3: (3, 9, 10, 1.0)}
        fleet, models = _run_against_model(cfg, [[slot, None, None]])
        assert sorted(models["s0"].slots[0]) == [0, 2]
        assert fleet.analyze()[2].tolist() == [2, 0, 0]

    def test_flow_ids_too_wide_to_pack_with_the_switch(self):
        """Ids near the int64 edge (hashes, say) overflow the (flow,
        switch) key: these two collide modulo 2^64 for a fleet of three
        unless the ids are renumbered first."""
        low, high = -3074457345618258602, 3074457345618258603
        assert (3 * low + 0) % 2**64 == (3 * high + 1) % 2**64
        cfg = PETConfig(history_k=3, ncm_cleanup_interval_slots=3)
        ticks = [[{low: (0, 9, 10, 0.0)}, _slot(), None],
                 [_slot(), {high: (1, 9, 10, 0.0)}, None]]
        for sources in ((False, False, False), (True, True, True)):
            fleet, models = _run_against_model(cfg, ticks, sources)
            assert fleet.analyze()[2].tolist() == [1, 1, 0]

    def test_bytes_seen_floor_at_the_boundary(self):
        """``int(max(seen, 1.0))``: 1 MB + 0.7 B is still a mouse."""
        net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2),
                           seed=0)
        seen = np.array([0.2, MB + 0.7, MB + 1.2])
        snap = _ObsSnapshot([5, 6, 7], seen, np.array([[0], [0], [0]]),
                            np.array([0, 1, 2]), np.array([3, 3, 3]),
                            net.q_switch)
        assert snap.rows()[4].tolist() == [1, MB, MB + 1]
        rec = record("s0", flow_rows=(snap, 0))
        fleet = FleetNCM(["s0"], PETConfig())
        incast, ratio, flows = fleet.ingest([rec], np.array([0]))
        assert (incast[0], ratio[0], flows[0]) == (3, 2 / 3, 3)

    def test_string_host_names_from_the_packet_simulator(self):
        net = PacketNetwork(TopologyConfig(n_spine=1, n_leaf=2,
                                           hosts_per_leaf=3,
                                           host_rate_bps=2e8,
                                           spine_rate_bps=8e8), seed=1)
        net.start_flows([Flow(i, f"h{i % 5}", "h5", 40_000 + 400_000 * (i % 2),
                              start_time=i * 1e-3) for i in range(12)])
        names = net.switch_names()
        cfg = PETConfig(history_k=2, ncm_cleanup_interval_slots=3)
        fleet = FleetNCM(names, cfg)
        models = {s: DictNCM(cfg) for s in names}
        busiest = 0
        for _ in range(12):
            net.advance(2e-3)
            stats = net.queue_stats()
            got = fleet.ingest([stats[s] for s in names],
                               np.arange(len(names)))
            # the model sees the flows' host names, the NCM the host ids
            flows = net.flows
            want = [models[s].ingest(
                {fid: (flows[fid].src, flows[fid].dst, nbytes, 0.0)
                 for fid, (_, _, nbytes) in switch_rows(stats[s]).items()})
                for s in names]
            assert [g.tolist() for g in got] == [list(w) for w in zip(*want)]
            busiest = max(busiest, int(got[0].max()))
        assert busiest >= 4                       # the incast was seen


# ------------------------------------------------------ snapshot rows()
def _dict_expansion(fids, seen, paths, src, dst, q_switch):
    """Per switch ``{fid: (src, dst, bytes seen)}`` as a plain loop: flows
    in slot order, each switch on a flow's path in hop order."""
    out = {}
    for fid, s, d, nbytes, path in zip(fids, src.tolist(), dst.tolist(),
                                       seen.tolist(), paths.tolist()):
        row = (s, d, int(nbytes if nbytes > 1.0 else 1.0))
        for q in path:
            if q >= 0:
                out.setdefault(int(q_switch[q]), {})[fid] = row
    return out


@given(data=st.data(), n_flows=st.integers(0, 12), hops=st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_snapshot_rows_are_its_dict_expansion(data, n_flows, hops):
    """Any paths at all — padded, revisiting a switch, revisiting a queue:
    ``rows()`` is the plain per-switch expansion, each switch in the
    loop's order."""
    q_switch = np.array(data.draw(st.lists(st.integers(0, 3), min_size=6,
                                           max_size=6)))
    paths = np.array(data.draw(st.lists(
        st.lists(st.integers(-1, 5), min_size=hops, max_size=hops),
        min_size=n_flows, max_size=n_flows)), dtype=np.int64).reshape(
            n_flows, hops)
    seen = np.array(data.draw(st.lists(
        st.sampled_from([0.0, 0.4, 7.9, MB + 0.5, 3.0 * MB]),
        min_size=n_flows, max_size=n_flows)))
    fids = [100 + 3 * i for i in range(n_flows)]
    src, dst = np.arange(n_flows) % 4, (np.arange(n_flows) + 1) % 4
    snap = _ObsSnapshot(fids, seen, paths, src, dst, q_switch)
    oracle = _dict_expansion(fids, seen, paths, src, dst, q_switch)
    sw, fid, s_, d_, nbytes = (c.tolist() for c in snap.rows())
    for switch in range(4):
        mine = [i for i, x in enumerate(sw) if x == switch]
        want = oracle.get(switch, {})
        assert [fid[i] for i in mine] == list(want)
        assert [(s_[i], d_[i], nbytes[i]) for i in mine] == \
            list(want.values())
    assert set(sw) <= set(range(4))


def test_replace_keeps_the_table_handle_unless_it_is_replaced():
    table = build_rows({0: {1: (0, 1, 10, 0.0), 2: (2, 1, 10, 0.0)}})
    rec = record("s0", flow_rows=(table, 0))
    repaired = dataclasses.replace(rec, avg_qlen_bytes=0.0, tx_bytes=7)
    assert repaired.flow_rows[0] is table and repaired.flow_rows[1] == 0
    swapped = dataclasses.replace(
        rec, flow_rows=(build_rows({0: {9: ("a", "b", 10, 0.0)}}), 0))
    fleet = FleetNCM(["s0", "s1"], PETConfig())
    got = fleet.ingest([repaired, dataclasses.replace(swapped, switch="s1")],
                       np.array([0, 1]))
    assert got[2].tolist() == [2, 1] and got[0].tolist() == [2, 1]


# ------------------------------------------------ state, reward, history
_NUM = st.one_of(st.floats(0, 1e12), st.sampled_from([0.0, 1.0, 1e9]))
_RECORD = st.builds(
    record, switch=st.just("s"), interval=st.sampled_from([0.0, 1e-3, 2.5e-4]),
    qlen_bytes=_NUM, avg_qlen_bytes=_NUM, capacity_bps=_NUM,
    tx_bytes=st.integers(0, 10**12), tx_marked_bytes=st.integers(0, 10**12),
    n_queues=st.integers(0, 9),
    ecn=st.one_of(st.none(), st.builds(ECNConfig, st.integers(0, 10**5),
                                       st.integers(10**5, 10**7),
                                       st.floats(0.01, 1.0))))
_ARMS = st.builds(PETConfig, use_incast=st.booleans(),
                  use_flow_ratio=st.booleans(),
                  raw_reciprocal_reward=st.booleans(),
                  beta1=st.just(0.3), beta2=st.just(0.7))


@given(cfg=_ARMS, records=st.lists(_RECORD, min_size=1, max_size=6),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_fleet_state_and_reward_equal_the_per_record_forms(cfg, records, data):
    n = len(records)
    incast = np.array(data.draw(st.lists(st.integers(0, 40), min_size=n,
                                         max_size=n)))
    ratio = np.array(data.draw(st.lists(st.floats(0, 1), min_size=n,
                                        max_size=n)))
    cols = TelemetryColumns(records)
    want = [_features(cfg, r, int(i), float(f))
            for r, i, f in zip(records, incast, ratio)]
    assert StateBuilder(cfg).build_fleet(cols, incast, ratio).tolist() == want
    assert RewardComputer(cfg).compute_fleet(cols).tolist() == \
        [_reward(cfg, r) for r in records]
    assert cols.utilization.tolist() == [r.utilization for r in records]


@given(k=st.integers(1, 4),
       pushes=st.lists(st.lists(st.booleans(), min_size=3, max_size=3),
                       max_size=10))
def test_fleet_history_equals_one_list_per_switch(k, pushes):
    """A young window is zero-padded on the left; a switch that sits a
    push out keeps its window as it was."""
    fleet = HistoryWindow(k, rows=3)
    plain = [[] for _ in range(3)]
    for t, present in enumerate(pushes):
        rows = np.flatnonzero(present)
        feats = np.arange(6.0) + 10 * t + 100 * rows[:, None]
        fleet.push(feats, rows)
        for r, f in zip(rows.tolist(), feats):
            plain[r] = (plain[r] + [f])[-k:]
    want = [np.concatenate([np.zeros(6)] * (k - len(p)) + p) for p in plain]
    assert fleet.observation().tolist() == [w.tolist() for w in want]
    assert fleet.observation(np.array([2, 0])).tolist() == \
        [want[2].tolist(), want[0].tolist()]
    assert len(fleet) == len(plain[0])


def _loaded(seed=0):
    net = FluidNetwork(FluidConfig(n_spine=2, n_leaf=3, hosts_per_leaf=4,
                                   host_rate_bps=10e9, spine_rate_bps=40e9),
                       seed=seed)
    rng = np.random.default_rng(seed)
    flows = []
    for i in range(150):
        src, dst = rng.choice(12, size=2, replace=False)
        flows.append(Flow(i, f"h{src}", f"h{7 if i % 3 == 0 and src != 7 else dst}",
                          int(rng.integers(20_000, 3_000_000)),
                          start_time=float(rng.uniform(0, 0.03))))
    net.start_flows(flows)
    return net


@pytest.mark.parametrize("arm", [dict(), dict(use_incast=False),
                                 dict(raw_reciprocal_reward=True)])
def test_observer_equals_the_per_switch_pipeline_on_a_real_fabric(arm):
    """Real collections, one switch blacked out for a while: observations
    and rewards equal dict-NCM → Eq. 2 → list history, and Eq. 6."""
    cfg = PETConfig(history_k=3, ncm_cleanup_interval_slots=4, **arm)
    net = _loaded()
    names = net.switch_names()
    observer = FleetObserver(names, cfg)
    models = {s: DictNCM(cfg) for s in names}
    history = {s: [] for s in names}
    for t in range(30):
        net.advance(1e-3)
        stats = net.queue_stats()
        if 8 <= t < 13:
            del stats["leaf1"]
        seen = observer.observe(stats)
        assert seen.switches == [s for s in names if s in stats]
        assert seen.rows.tolist() == [names.index(s) for s in seen.switches]
        for s, obs, reward in zip(seen.switches, seen.obs, seen.reward):
            rec = stats[s]
            incast, ratio, _ = models[s].ingest(
                {fid: (src, dst, nbytes, 0.0)
                 for fid, (src, dst, nbytes) in switch_rows(rec).items()})
            history[s] = (history[s] + [np.array(
                _features(cfg, rec, incast, ratio))])[-cfg.history_k:]
            pad = [np.zeros(6)] * (cfg.history_k - len(history[s]))
            assert obs.tolist() == np.concatenate(pad + history[s]).tolist()
            assert reward == _reward(cfg, rec)
            assert observer.mean_recent_reward(s, 1) == reward


# ---------------------------------------------------------- episode reset
def _controller(kind, names, state=None):
    if kind == "pet":
        ctl = PETController(names, PETConfig.fast(seed=0, delta_t=1e-3))
    else:
        ctl = ACCController(names, ACCConfig(
            base=PETConfig.fast(seed=0, delta_t=1e-3), seed=0))
    if state is not None:
        ctl.load_state_dict(state)
    ctl.set_training(False)
    return ctl


@pytest.mark.parametrize("kind", ["pet", "acc"])
def test_reset_episode_leaves_nothing_of_the_last_episode(kind):
    """Interval 1 of episode 2 is observed — and acted on — exactly as a
    fresh controller with the same weights observes it."""
    names = _loaded().switch_names()
    veteran = _controller(kind, names)
    first = _loaded(seed=1)
    for _ in range(11):          # not a multiple of the cleanup cadence
        first.advance(1e-3)
        veteran.decide(first.queue_stats(), first.now, first)
    assert veteran.observer.ncm.memory_bytes().sum() > 0
    veteran.reset_episode()
    fresh = _controller(kind, names, veteran.state_dict())
    nets = _loaded(seed=2), _loaded(seed=2)
    for _ in range(10):
        applied = []
        for ctl, net in zip((veteran, fresh), nets):
            net.advance(1e-3)
            applied.append(ctl.decide(net.queue_stats(), net.now, net))
        assert applied[0] == applied[1] and applied[0]
        assert veteran.observer.history.observation().tolist() == \
            fresh.observer.history.observation().tolist()
        assert veteran.observer.ncm.memory_bytes().tolist() == \
            fresh.observer.ncm.memory_bytes().tolist()


def test_one_switch_monitor_is_the_one_row_fleet():
    """A switch's monitor on its own is ``FleetNCM([switch])``."""
    ncm = FleetNCM(["s0"], PETConfig(history_k=2))
    row = np.array([0])
    a = ncm.ingest([record("s0", {1: ("a", "x", 10, 0.0)})], row)
    b = ncm.ingest([record("s0", {2: ("b", "x", 5 * MB, 1.0)})], row)
    assert [c.tolist() for c in a] == [[1], [1.0], [1]]
    assert [c.tolist() for c in b] == [[2], [0.5], [2]]
    assert [c.tolist() for c in ncm.analyze()] == [c.tolist() for c in b]
    assert ncm.memory_bytes().tolist() == [96]
