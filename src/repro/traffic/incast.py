"""Many-to-one incast bursts (partition–aggregate traffic).

The paper extends the Alibaba traffic generator to emit many-to-one
patterns: a periodic aggregation step in which ``fan_in`` workers
simultaneously return equally-sized responses to one aggregator.  The
resulting synchronized bursts at the aggregator's last-hop port are what
the incast-degree state feature lets PET detect.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional, Sequence

import numpy as np

from repro.netsim.flow import Flow
from repro.parallel.seeding import fallback_rng

__all__ = ["IncastConfig", "IncastGenerator"]


@dataclass
class IncastConfig:
    fan_in: int = 16                  # senders per aggregation
    response_bytes: int = 64_000      # per-worker response size
    period: float = 5e-3              # time between aggregations
    duration: float = 50e-3           # total time to generate for
    start_time: float = 0.0
    jitter: float = 0.0               # +/- uniform jitter on worker starts
    tag: str = "incast"

    def __post_init__(self) -> None:
        if self.fan_in < 2:
            raise ValueError("incast needs fan_in >= 2")
        if self.response_bytes <= 0 or self.period <= 0 or self.duration <= 0:
            raise ValueError("sizes and times must be positive")


class IncastGenerator:
    """Generates synchronized many-to-one flow groups."""

    def __init__(self, hosts: Sequence[str],
                 rng: Optional[np.random.Generator] = None,
                 first_flow_id: int = 0) -> None:
        if len(hosts) < 3:
            raise ValueError("need at least three hosts for incast")
        self.hosts = list(hosts)
        self.rng = rng if rng is not None else fallback_rng(0)
        self._next_id = first_flow_id

    def generate(self, cfg: IncastConfig,
                 aggregator: Optional[str] = None) -> List[Flow]:
        """All aggregation rounds within ``cfg.duration``.

        When ``aggregator`` is None a fresh one is drawn per round
        (spreading incast across the fabric, as partition–aggregate jobs
        do); fixing it concentrates the bursts on one access link, which
        must be one of the generator's hosts.
        """
        n_hosts = len(self.hosts)
        fixed = None
        if aggregator is not None:
            if aggregator not in self.hosts:
                raise ValueError(f"aggregator {aggregator!r} is not one of "
                                 "the generator's hosts")
            fixed = self.hosts.index(aggregator)
        fan_in = min(cfg.fan_in, n_hosts - 1)
        srcs: List[int] = []
        dsts: List[int] = []
        starts: List[float] = []
        t = cfg.start_time
        end = cfg.start_time + cfg.duration
        while t < end:
            agg = int(self.rng.integers(n_hosts)) if fixed is None else fixed
            # Worker j of the hosts without the aggregator is host j, or
            # host j + 1 from the aggregator's index on.
            w = self.rng.choice(n_hosts - 1, size=fan_in, replace=False)
            srcs += (w + (w >= agg)).tolist()
            dsts += [agg] * fan_in
            jit = (self.rng.uniform(-cfg.jitter, cfg.jitter, size=fan_in)
                   if cfg.jitter > 0 else np.zeros(fan_in))
            starts += np.maximum(t + jit, cfg.start_time).tolist()
            t += cfg.period
        host = self.hosts.__getitem__
        n = len(srcs)
        ids = range(self._next_id, self._next_id + n)
        self._next_id += n
        return list(map(Flow, ids, map(host, srcs), map(host, dsts),
                        repeat(cfg.response_bytes, n), starts,
                        repeat(cfg.tag, n)))

    def next_flow_id(self) -> int:
        return self._next_id
