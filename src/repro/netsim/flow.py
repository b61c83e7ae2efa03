"""Flow bookkeeping: sizes, completion times, mice/elephant classes.

The paper classifies any flow whose cumulative size exceeds 1 MB as an
elephant (DevoFlow rule, §4.2.1); everything smaller is a mouse.  FCT is
measured from flow arrival to the last byte acknowledged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Flow", "MICE_ELEPHANT_THRESHOLD", "classify_flow_size"]

#: Bytes above which a flow counts as an elephant (paper §4.2.1, [35]).
MICE_ELEPHANT_THRESHOLD = 1_000_000


def classify_flow_size(size_bytes: int) -> str:
    """Return ``"elephant"`` or ``"mice"`` for a flow size."""
    return "elephant" if size_bytes > MICE_ELEPHANT_THRESHOLD else "mice"


@dataclass
class Flow:
    """One sender→receiver transfer."""

    flow_id: int
    src: Any
    dst: Any
    size_bytes: int
    start_time: float = 0.0
    #: tag used by experiment harnesses, e.g. "websearch", "incast".
    tag: str = ""

    bytes_sent: int = field(default=0, compare=False)
    bytes_acked: int = field(default=0, compare=False)
    finish_time: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # ``nan <= 0`` is False; a fluid network never finishes such a flow
        if not -math.inf < self.size_bytes < math.inf:
            raise ValueError(f"flow size_bytes must be finite, got "
                             f"{self.size_bytes!r}")
        if not -math.inf < self.start_time < math.inf:
            raise ValueError(f"flow start_time must be finite, got "
                             f"{self.start_time!r}")
        if self.size_bytes <= 0:
            raise ValueError("flow size must be positive")

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time in seconds, or None while running."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    @property
    def kind(self) -> str:
        return classify_flow_size(self.size_bytes)

    @property
    def is_mice(self) -> bool:
        return self.kind == "mice"

    @property
    def is_elephant(self) -> bool:
        return self.kind == "elephant"

    def remaining_bytes(self) -> int:
        return max(self.size_bytes - self.bytes_sent, 0)

    def ideal_fct(self, bottleneck_bps: float, base_rtt: float = 0.0) -> float:
        """Transfer time on an empty network — the FCT normalizer.

        The paper reports *normalized* FCT (a.k.a. slowdown): measured FCT
        divided by the time the same flow would take alone on the path.
        """
        if bottleneck_bps <= 0:
            raise ValueError("bottleneck rate must be positive")
        return self.size_bytes * 8.0 / bottleneck_bps + base_rtt
