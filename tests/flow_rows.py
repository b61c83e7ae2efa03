"""Per-flow telemetry built by hand, and the form pinned digests hash.

:func:`record` makes a switch record whose
:class:`~repro.netsim.network.FlowRows` holds given observations, laid
out as a simulator's collection lays them out: a switch's rows oldest
``last_seen`` first (ties in the given order), hosts as integers.
:func:`pinned_form` renders a collection in the form the suite's pinned
digests were captured in, before records carried a table.
"""

from dataclasses import fields
from typing import Any, Dict, Optional

import numpy as np

from repro.netsim.network import FlowRows, QueueStats
from repro.netsim.queueing import FlowObservation


def host_id(name: Any) -> int:
    """A host's id: an int as it is, a name as the integer its bytes
    spell, so one host keeps one id in every table built here."""
    return name if isinstance(name, int) else int.from_bytes(
        name.encode(), "big")


def build_rows(per_switch: Dict[int, Dict[int, tuple]]) -> FlowRows:
    """One table from ``{switch index: {fid: (src, dst, bytes seen,
    last seen)}}``."""
    rows = [(s, fid, host_id(src), host_id(dst), nbytes)
            for s, entries in per_switch.items()
            for fid, (src, dst, nbytes, _) in sorted(
                entries.items(), key=lambda kv: kv[1][3])]
    return FlowRows(tuple(np.array(rows, dtype=np.int64)
                           .reshape(-1, 5).T.copy()))


def record(switch: str, flows: Optional[Dict[int, tuple]] = None,
           **values: Any) -> QueueStats:
    """A record of ``switch`` observing ``flows`` (``{fid: (src, dst,
    bytes seen, last seen)}``), index 0 of its own table; ``values``
    override the other fields (``flow_rows`` included)."""
    base = dict(switch=switch, interval=1e-3, qlen_bytes=0.0,
                max_port_qlen_bytes=0.0, avg_qlen_bytes=0.0, tx_bytes=0,
                tx_marked_bytes=0, dropped_pkts=0, capacity_bps=1e9,
                ecn=None)
    base.update(values)
    base.setdefault("flow_rows", (build_rows({0: flows or {}}), 0))
    return QueueStats(**base)


def switch_rows(st: QueueStats) -> Dict[int, tuple]:
    """A record's rows as ``{fid: (src id, dst id, bytes seen)}``, in
    table order."""
    table, index = st.flow_rows
    sw, fid, src, dst, seen = (c.tolist() for c in table.rows())
    return {f: (s_, d, b)
            for x, f, s_, d, b in zip(sw, fid, src, dst, seen) if x == index}


def count_row_builds(monkeypatch) -> list:
    """Patch the fluid collection table so that each build of its rows
    appends to the returned list."""
    from repro.netsim import fluid

    built = []
    rows = fluid._ObsSnapshot.rows

    def counting(self):
        if self._rows is None:
            built.append(self)
        return rows(self)

    monkeypatch.setattr(fluid._ObsSnapshot, "rows", counting)
    return built


def pinned_form(stats: Dict[str, QueueStats], net) -> Dict[str, dict]:
    """``stats`` as the pinned digests hashed a collection while the
    per-flow field was ``flow_obs``, a ``{fid: FlowObservation}`` dict:
    each of a record's rows an observation of ``net``'s flow, last seen
    at the collection.  Call it right after the collection (``net.now``
    is that time)."""
    out = {}
    for name, st in stats.items():
        form = {f.name: getattr(st, f.name) for f in fields(st)
                if f.name != "flow_rows"}
        table, index = st.flow_rows
        sw, fid, _, _, seen = (c.tolist() for c in table.rows())
        form["flow_obs"] = {
            f: FlowObservation(f, net.flows[f].src, net.flows[f].dst, b,
                               net.now)
            for s, f, b in zip(sw, fid, seen) if s == index}
        out[name] = form
    return out
