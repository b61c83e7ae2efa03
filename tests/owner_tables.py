"""A fluid network's flow table as one plain table per owner — the one
row of a solo network, replica ``r``'s row of its batch's table, one per
pod of a fat-tree — in the shape the plain-loop oracles walk."""

from types import SimpleNamespace

import numpy as np


def owner_tables(net):
    """Per owner of ``net``, in owner order: the ``f_*`` columns as views
    of its slots up to its high-water mark (they go stale if the table
    regrows), ``n_flows``, its free list ``free``, and ``fid_at`` —
    ``{slot: flow id}`` over the slots below the mark not on the free
    list."""
    tab = net._table
    tables = []
    for r in net._owners:
        n, free = tab.n_flows[r], list(tab.free[r])
        fids, recycled = tab.rows("f_fid")[r], set(free)
        owner = SimpleNamespace(
            n_flows=n, free=free,
            fid_at={i: int(fids[i]) for i in range(n) if i not in recycled})
        for name, _, _ in tab.columns:
            if name != "f_fid":
                setattr(owner, name, tab.rows(name)[r, :n])
        tables.append(owner)
    return tables


def flow_table_state(net):
    """Every flow-table column but the flow ids, concatenated in (owner,
    slot) order up to each owner's high-water mark: the flow half of the
    fat-tree's conformance fingerprints."""
    tab = net._table
    return {name: np.concatenate([tab.rows(name)[r, :tab.n_flows[r]]
                                  for r in net._owners])
            for name, _, _ in tab.columns if name != "f_fid"}
