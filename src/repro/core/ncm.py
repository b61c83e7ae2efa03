"""Network Condition Monitor (paper §4.5.1).

Every switch runs one NCM, and the NCM plays three roles:

1. **Monitoring** — ingests the switch's per-interval
   :class:`~repro.netsim.network.QueueStats` (which carry the raw
   per-flow observations the queues collected).
2. **Computation & Analysis** — derives the category-2 state features
   over the retained slots, a flow seen in several counting once, as
   last seen:

   - *incast degree*: from the observed (src, dst) pairs, the largest
     number of distinct senders currently converging on one receiver
     behind this switch (§4.2.1: "the total number of senders
     communicating with the same receiver in each many-to-one pattern");
   - *mice/elephant ratio*: classify each observed flow by cumulative
     bytes against the 1 MB DevoFlow threshold.

3. **Scheduled Cleanup** — expires state older than the history window:
   a periodic sweep every ``ncm_cleanup_interval_slots`` slots, plus a
   threshold sweep that triggers when the observation memory exceeds
   ``ncm_memory_threshold_bytes`` and drops the oldest
   ``ncm_threshold_drop_fraction`` of entries (the incast-burst safety
   valve the paper describes).

The monitors of a fleet are independent but tick together, so
:class:`FleetNCM` keeps all their windows in one columnar table and does
each role once per tick for every switch that reported — one switch's
monitor is a fleet of one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.config import PETConfig
from repro.netsim.flow import MICE_ELEPHANT_THRESHOLD
from repro.obs.metrics import get_registry
from repro.netsim.network import QueueStats

__all__ = ["FleetNCM"]

#: rough resident size of one retained observation
_ENTRY_BYTES = 48
#: rows of the window table
_SW, _FID, _SRC, _DST, _ELEPHANT, _SLOT = range(6)


def _ends_of_runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the last element of every run of equal keys."""
    last = np.ones(sorted_keys.size, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=last[:-1])
    return last.nonzero()[0]


class FleetNCM:
    """The monitors of ``switches``, kept as one table.

    A *slot* is one :meth:`ingest`; the window is a ``(6, N)`` int64
    table — switch row, flow id, src and dst host ids, elephant flag and
    slot number of every retained observation — slot-major, a switch's
    entries within a slot oldest ``last_seen`` first (so table order is
    the order a threshold sweep drops in), with a *newest* flag
    alongside.  ``_live`` is the ``(slots, switches)`` mask of which
    slots each switch still retains (an empty slot counts, as it did
    when each was a list entry).  Retention is per switch: a switch
    absent from a tick gets no slot, its periodic sweep keys off its own
    slot count, and a threshold sweep touches nobody else's entries.

    The *newest* flag marks the one entry per (switch, flow) that a
    latest-wins merge of the window keeps.  An ingest clears it on the
    entries its own supersede, and that is all the upkeep there is: both
    sweeps remove a switch's entries oldest slot first, so a superseded
    entry never outlives the one that superseded it.
    """

    def __init__(self, switches: Sequence[str], config: PETConfig) -> None:
        self.switches = list(switches)
        self.config = config
        n = len(self.switches)
        self.cleanups_scheduled = np.zeros(n, dtype=np.int64)
        self.cleanups_threshold = np.zeros(n, dtype=np.int64)
        self.entries_pruned = np.zeros(n, dtype=np.int64)
        #: host -> id, for observations that arrive as dicts (a snapshot's
        #: rows carry host indices already; a switch reports one way or
        #: the other, so the two id spaces never meet in a window)
        self._host_ids: Dict[Any, int] = {}
        self.clear()

    def clear(self) -> None:
        """Forget every observation and slot (a new episode)."""
        n = len(self.switches)
        self._win = np.empty((6, 0), dtype=np.int64)
        self._newest = np.empty(0, dtype=bool)
        self._live = np.empty((0, n), dtype=bool)
        self._slot0 = 0                        # slot number of _live[0]
        self._slot_count = np.zeros(n, dtype=np.int64)

    # -- monitoring ---------------------------------------------------------
    def _flow_rows(self, records: Sequence[QueueStats], rows: np.ndarray,
                   slot: int) -> np.ndarray:
        """The records' per-flow observations as slot ``slot`` of the
        window table.

        Records that point into a collection snapshot share its cached
        ``rows()`` (all last seen at once, so already in sweep order);
        the others (a packet simulator's, a ``replace(flow_obs=…)``) are
        read entry by entry from their dict.
        """
        by_snapshot: Dict[int, Tuple[Any, List[int], List[int]]] = {}
        loose: List[Tuple] = []
        host_id = self._host_ids
        for row, st in zip(rows.tolist(), records):
            source = st.flow_source
            if source is None:
                loose += [(row, fid,
                           host_id.setdefault(o.src, len(host_id)),
                           host_id.setdefault(o.dst, len(host_id)),
                           o.bytes_seen > MICE_ELEPHANT_THRESHOLD, slot)
                          for fid, o in sorted(st.flow_obs.items(),
                                               key=lambda kv: kv[1].last_seen)]
            else:
                _, at, to = by_snapshot.setdefault(id(source[0]),
                                                   (source[0], [], []))
                at.append(source[1])
                to.append(row)
        tables = [np.array(loose, dtype=np.int64).reshape(-1, 6).T]
        for snap, at, to in by_snapshot.values():
            sw, fid, src, dst, seen = snap.rows()
            row_of = np.full(max(int(sw.max(initial=0)), max(at)) + 1, -1)
            row_of[at] = to
            sw = row_of[sw]
            table = np.empty((6, sw.size), dtype=np.int64)
            table[:5] = sw, fid, src, dst, seen > MICE_ELEPHANT_THRESHOLD
            table[_SLOT] = slot
            tables.append(table.take((sw >= 0).nonzero()[0], axis=1))
        return np.concatenate(tables, axis=1)

    def ingest(self, records: Sequence[QueueStats], rows: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One slot for the switches ``rows`` from their ``records``;
        returns their ``(incast degree, flow ratio, flows observed)``."""
        n = len(self.switches)
        table = self._flow_rows(records, rows, self._slot0 + len(self._live))
        # the entries this slot supersedes: same (switch, flow), still newest
        was = self._newest.nonzero()[0]
        sw_old, fid_old = self._win[:2].take(was, axis=1)
        fid_new = table[_FID]
        if max(abs(fid_old).max(initial=0),
               abs(fid_new).max(initial=0)) >= (1 << 62) // n:  # sparse ids
            dense = np.unique(np.concatenate((fid_old, fid_new)),
                              return_inverse=True)[1]
            fid_old, fid_new = dense[:was.size], dense[was.size:]
        key_new = np.sort(fid_new * n + table[_SW])
        if key_new.size:
            key_old = fid_old * n + sw_old
            at = np.minimum(key_new.searchsorted(key_old), key_new.size - 1)
            self._newest[was[key_new[at] == key_old]] = False
        self._win = np.concatenate((self._win, table), axis=1)
        self._newest = np.concatenate(
            (self._newest, np.ones(table.shape[1], dtype=bool)))
        present = np.zeros((1, n), dtype=bool)
        present[0, rows] = True
        self._live = np.concatenate((self._live, present))
        self._slot_count[rows] += 1
        incast, ratio, flows = self.analyze()
        self._cleanup(rows)
        return incast[rows], ratio[rows], flows[rows]

    # -- computation & analysis ------------------------------------------------
    def analyze(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per switch: incast degree, mice share and flow count of its
        window, merged latest-wins."""
        n = len(self.switches)
        sw, _, src, dst, elephant = self._win[:5].take(
            self._newest.nonzero()[0], axis=1)
        incast = np.zeros(n, dtype=np.int64)
        if not sw.size:
            return incast, np.full(n, 0.5), incast.copy()
        flows = np.bincount(sw, minlength=n)
        mice = flows - np.bincount(sw[elephant != 0], minlength=n)
        ratio = np.where(flows > 0, mice / np.maximum(flows, 1), 0.5)
        # Incast degree: sort the distinct (switch, receiver, sender)
        # triples, packed into one integer; the longest run of one
        # (switch, receiver) is the answer.  (Value sorts throughout —
        # several times faster than an argsort or a hashed np.unique.)
        host_bits = max(int(src.max()), int(dst.max())).bit_length()
        triples = np.sort(((sw << host_bits | dst) << host_bits) | src)
        pairs = triples[_ends_of_runs(triples)] >> host_bits
        ends = _ends_of_runs(pairs)
        senders = ends + 1                   # run lengths (np.diff is slow)
        senders[1:] -= ends[:-1] + 1
        np.maximum.at(incast, pairs[ends] >> host_bits, senders)
        return incast, ratio, flows

    # -- scheduled cleanup -------------------------------------------------------
    def memory_bytes(self) -> np.ndarray:
        """Rough resident size of each switch's retained observations."""
        return _ENTRY_BYTES * np.bincount(self._win[_SW],
                                          minlength=len(self.switches))

    def retained_slots(self) -> np.ndarray:
        return self._live.sum(axis=0)

    def _cleanup(self, rows: np.ndarray) -> None:
        cfg = self.config
        # Strategy 1: periodic sweep — a switch whose slot count hits the
        # cadence keeps its newest k slots (Eq. 3: older data is expired).
        due = np.zeros(len(self.switches), dtype=bool)
        due[rows] = (self._slot_count[rows]
                     % max(cfg.ncm_cleanup_interval_slots, 1)) == 0
        if due.any():
            newer = self._live[::-1].cumsum(axis=0)[::-1]
            expired = self._live & (newer > cfg.history_k) & due
            self._live &= ~expired
            self._drop(expired[self._win[_SLOT] - self._slot0,
                               self._win[_SW]])
            self.cleanups_scheduled[due] += 1
        # Strategy 2: threshold sweep — triggered under bursty growth.
        over = self.memory_bytes()[rows] > cfg.ncm_memory_threshold_bytes
        if over.any():
            self._threshold_sweep(rows[over])
        reg = get_registry()
        if reg:
            memory, slots = self.memory_bytes(), self.retained_slots()
            for row in rows.tolist():
                reg.set_gauge("ncm.memory_bytes", int(memory[row]),
                              switch=self.switches[row])
                reg.set_gauge("ncm.retained_slots", int(slots[row]),
                              switch=self.switches[row])

    def _drop(self, gone: np.ndarray) -> None:
        """Remove the masked window entries, then the slots nobody retains."""
        self.entries_pruned += np.bincount(self._win[_SW, gone],
                                           minlength=len(self.switches))
        keep = (~gone).nonzero()[0]
        self._win = self._win.take(keep, axis=1)
        self._newest = self._newest.take(keep)
        dead = int(np.argmax(np.append(self._live.any(axis=1), True)))
        self._live = self._live[dead:]
        self._slot0 += dead

    def _threshold_sweep(self, rows: np.ndarray) -> None:
        """Drop the oldest fraction of each of ``rows``' entries: oldest
        slot first, inside a slot by ``last_seen`` (ties in the record's
        order) — table order."""
        gone = np.zeros(self._win.shape[1], dtype=bool)
        for row in rows.tolist():
            mine = np.flatnonzero(self._win[_SW] == row)
            gone[mine[:int(mine.size
                           * self.config.ncm_threshold_drop_fraction)]] = True
        # Emptied slots must not linger: they would inflate the slot
        # count the periodic sweep keys off (pushing data-bearing slots
        # out of the newest-k window early) and grow the slot list
        # without bound under bursty incast.
        kept = np.zeros_like(self._live)
        kept[self._win[_SLOT, ~gone] - self._slot0, self._win[_SW, ~gone]] = True
        self._live[:, rows] &= kept[:, rows]
        self._drop(gone)
        self.cleanups_threshold[rows] += 1
