"""The fat-tree network's stacked flow table as one table per owner pod,
in the shape the plain-loop oracles walk a solo ``FluidNetwork``."""

from types import SimpleNamespace

_COLUMNS = ("f_src", "f_dst", "f_size", "f_remaining", "f_rate", "f_alpha",
            "f_active", "f_core", "f_path")


def pod_tables(net):
    """Per pod ``p``: views of ``net._f_*[p]`` up to the pod's high-water
    mark (they go stale if the storage regrows), ``_n_flows``, and
    ``_idx_to_fid`` — ``{slot: flow id}`` over the slots below the mark
    that are not on the pod's free list."""
    tables = []
    for p, n in enumerate(net._n_flows):
        free = set(net._free[p])
        tab = SimpleNamespace(
            _n_flows=n,
            _idx_to_fid={i: int(net._f_fid[p, i]) for i in range(n)
                         if i not in free})
        for name in _COLUMNS:
            setattr(tab, name, getattr(net, "_" + name)[p, :n])
        tables.append(tab)
    return tables
