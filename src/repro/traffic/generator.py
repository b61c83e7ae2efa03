"""Open-loop Poisson flow-arrival generation at a target load.

Load is the standard definition: the fraction of the aggregate host
access capacity consumed by offered traffic, so the flow arrival rate is

    lambda = load * n_hosts * host_rate / 8 / mean_flow_size   [flows/s].

Sources and destinations are drawn uniformly (src != dst), matching the
all-to-all pattern of the paper's background traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional, Sequence

import numpy as np

from repro.netsim.flow import Flow
from repro.parallel.seeding import fallback_rng
from repro.traffic.cdf import PiecewiseCDF

__all__ = ["TrafficConfig", "PoissonTrafficGenerator"]


@dataclass
class TrafficConfig:
    """Parameters of one background-traffic segment."""

    load: float                      # fraction of aggregate host capacity
    duration: float                  # seconds of arrivals
    host_rate_bps: float
    start_time: float = 0.0
    min_size: int = 100              # floor on sampled flow size (bytes)
    tag: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.load <= 2.0:
            raise ValueError("load must be in (0, 2]")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.host_rate_bps <= 0:
            raise ValueError("host rate must be positive")


class PoissonTrafficGenerator:
    """Generates flow lists for a fixed host set."""

    def __init__(self, hosts: Sequence[str], workload: PiecewiseCDF,
                 rng: Optional[np.random.Generator] = None,
                 first_flow_id: int = 0) -> None:
        if len(hosts) < 2:
            raise ValueError("need at least two hosts")
        self.hosts = list(hosts)
        # the names as an object array; ``fromiter`` stores each name as
        # one element, so a tuple name is not spread over an axis
        self._names = np.fromiter(self.hosts, dtype=object,
                                  count=len(self.hosts))
        self.workload = workload
        self.rng = rng if rng is not None else fallback_rng(0)
        self._next_id = first_flow_id

    def arrival_rate(self, cfg: TrafficConfig) -> float:
        """Poisson flow arrival rate (flows/second) for a segment."""
        capacity_Bps = len(self.hosts) * cfg.host_rate_bps / 8.0
        return cfg.load * capacity_Bps / self.workload.mean()

    def generate(self, cfg: TrafficConfig) -> List[Flow]:
        """One segment of Poisson arrivals with CDF-sampled sizes."""
        lam = self.arrival_rate(cfg)
        # Draw inter-arrival gaps until the segment duration is covered.
        expected = lam * cfg.duration
        n_guess = int(expected + 6 * np.sqrt(expected + 1)) + 8
        gaps = self.rng.exponential(1.0 / lam, size=n_guess)
        times = np.cumsum(gaps)
        while times.size and times[-1] < cfg.duration:
            more = self.rng.exponential(1.0 / lam, size=max(n_guess // 4, 8))
            times = np.concatenate([times, times[-1] + np.cumsum(more)])
        times = times[times < cfg.duration]
        n = times.size
        sizes = np.maximum(self.workload.sample(self.rng, n), cfg.min_size)
        n_hosts = len(self.hosts)
        srcs = self.rng.integers(n_hosts, size=n)
        offs = self.rng.integers(1, n_hosts, size=n)
        dsts = (srcs + offs) % n_hosts
        # ``tolist`` turns each column into Python objects in one call
        # (the host columns gather the name objects themselves, making
        # no int per flow); the Flows are then built row by row.
        ids = range(self._next_id, self._next_id + n)
        self._next_id += n
        return list(map(Flow, ids, self._names.take(srcs).tolist(),
                        self._names.take(dsts).tolist(),
                        sizes.astype(np.int64).tolist(),
                        (times + cfg.start_time).tolist(),
                        repeat(cfg.tag or self.workload.name, n)))

    def next_flow_id(self) -> int:
        return self._next_id
