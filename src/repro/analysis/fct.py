"""Flow-completion-time statistics (paper Figs. 4-7, 9).

The paper reports *normalized* FCT (slowdown): the measured FCT divided
by the flow's ideal completion time on an empty network.  Splits follow
the paper's buckets: overall, mice ``(0, 100KB]``, and elephant
``[10MB, inf)`` — note the figure buckets are stricter than the 1 MB
classification threshold used for the R_flow state feature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.netsim.flow import MICE_ELEPHANT_THRESHOLD, Flow

__all__ = ["FCTStats", "normalized_fcts", "fct_statistics",
           "MICE_BUCKET_MAX", "ELEPHANT_BUCKET_MIN"]

#: paper Fig. 4(b,c): mice bucket is (0, 100KB]
MICE_BUCKET_MAX = 100_000
#: paper Fig. 4(d): elephant bucket is [10MB, inf)
ELEPHANT_BUCKET_MIN = 10_000_000


@dataclass(frozen=True)
class FCTStats:
    """Summary of one flow population."""

    count: int
    avg: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "FCTStats":
        if len(values) == 0:
            return cls(count=0, avg=float("nan"), p50=float("nan"),
                       p95=float("nan"), p99=float("nan"))
        arr = np.asarray(values, dtype=np.float64)
        return cls(count=int(arr.size), avg=float(arr.mean()),
                   p50=float(np.percentile(arr, 50)),
                   p95=float(np.percentile(arr, 95)),
                   p99=float(np.percentile(arr, 99)))


def _columns(flows: Iterable[Flow], bottleneck_bps: float, base_rtt: float
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slowdown and size of every *finished* flow as float64 columns, in
    flow order, and which of them count: those whose ideal FCT is not
    ``<= 0`` (where one does not, the column holds its FCT).

    Elementwise, these are the IEEE operations of :attr:`Flow.fct` and
    :meth:`Flow.ideal_fct` on each record: ``(finish − start) / (size · 8
    / bps + rtt)``."""
    done = [f for f in flows if f.finish_time is not None]
    n = len(done)
    if n and bottleneck_bps <= 0:
        raise ValueError("bottleneck rate must be positive")
    # in place where a column is not needed again: the same operations
    slowdown = np.fromiter((f.finish_time for f in done), np.float64, n)
    slowdown -= np.fromiter((f.start_time for f in done), np.float64, n)
    size = np.fromiter((f.size_bytes for f in done), np.float64, n)
    del done
    ideal = size * 8.0
    ideal /= bottleneck_bps
    ideal += base_rtt
    counts = ~(ideal <= 0)
    np.divide(slowdown, ideal, out=slowdown, where=counts)
    return slowdown, size, counts


def normalized_fcts(flows: Iterable[Flow], bottleneck_bps: float,
                    base_rtt: float = 0.0) -> np.ndarray:
    """Slowdown of every *finished* flow (>= 1 in an ideal run), in flow
    order; a flow whose ideal FCT is ``<= 0`` is left out."""
    slowdown, _, counts = _columns(flows, bottleneck_bps, base_rtt)
    return slowdown[counts]


def fct_statistics(flows: Iterable[Flow], bottleneck_bps: float,
                   base_rtt: float = 0.0,
                   mice_max: int = MICE_BUCKET_MAX,
                   elephant_min: int = ELEPHANT_BUCKET_MIN
                   ) -> Dict[str, FCTStats]:
    """Normalized-FCT summaries for the paper's three buckets.

    Returns keys ``overall``, ``mice``, ``elephant`` (elephant falls back
    to the >1MB class when nothing reaches the 10 MB bucket, so small
    scenario runs still report a long-flow figure).  The finished flows
    are read once into columns, and each bucket is a mask over them.
    """
    slowdown, size, counts = _columns(flows, bottleneck_bps, base_rtt)
    elephant = size >= elephant_min
    if not elephant.any():
        elephant = size > MICE_ELEPHANT_THRESHOLD
    return {name: FCTStats.from_values(slowdown[counts & bucket])
            for name, bucket in (("overall", counts),
                                 ("mice", size <= mice_max),
                                 ("elephant", elephant))}
