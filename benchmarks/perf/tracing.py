"""Spans recorded from the harness, around the calls into each layer.

Nothing in ``src/`` is touched: :meth:`Tracer.patch` swaps a public
method for a timing proxy for the length of one traced run and
:meth:`Tracer.unpatch` puts the original back.  Spans are kept in memory
(one small list each) and written as JSONL once the run is over.

The proxies share one span stack.  That is sound here because the
benchmark is one closed loop: the serve plane's decider thread and the
HTTP handler thread only ever run while the main thread waits for them,
so spans from different threads nest, they never interleave.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_MISSING = object()

#: index of each field in a span record.
ID, PARENT, NAME, T0, T1, TICK, N = range(7)

Window = Tuple[float, float]


class Tracer:
    """In-memory span recorder with method-patching timing proxies."""

    def __init__(self) -> None:
        #: ``[id, parent_id, name, t0, t1, tick, n]`` per span; parent -1 =
        #: none, ``n`` = the count taken at the same boundary (0 if none).
        self.spans: List[list] = []
        #: control-tick index stamped on every span (-1 outside tick loops).
        self.tick = -1
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------
    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1,
               name, time.perf_counter(), 0.0, self.tick, 0]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        return rec

    def _close(self, rec: list) -> None:
        rec[T1] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable[[tuple, Any], int]] = None) -> Callable:
        """A proxy that times every call of ``fn`` as a ``name`` span.

        ``count(args, result)`` runs after the span closed and its value
        is kept on the span, so a count is taken at the same boundary as
        the time (reconfigurations applied, which trainer acted).
        """
        def proxy(*args: Any, **kwargs: Any) -> Any:
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[N] = count(args, result)
            return result
        return proxy

    def patch(self, owner: Any, attr: str, name: str,
              count: Optional[Callable[[tuple, Any], int]] = None) -> None:
        """Replace ``owner.attr`` (a class's method) by its timing proxy."""
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- queries ------------------------------------------------------------
    def durations(self, name: str, windows: Optional[List[Window]] = None
                  ) -> List[float]:
        """Seconds of every ``name`` span (started inside ``windows``)."""
        return [s[T1] - s[T0] for s in self.spans
                if s[NAME] == name and _inside(s, windows)]

    def self_durations(self, name: str,
                       windows: Optional[List[Window]] = None) -> List[float]:
        """Each ``name`` span's duration minus what its child spans cover."""
        covered: Dict[int, float] = {}
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] = covered.get(s[PARENT], 0.0) + s[T1] - s[T0]
        return [s[T1] - s[T0] - covered.get(s[ID], 0.0) for s in self.spans
                if s[NAME] == name and _inside(s, windows)]

    def counts(self, name: str, windows: Optional[List[Window]] = None
               ) -> List[int]:
        """The boundary count of every ``name`` span."""
        return [s[N] for s in self.spans
                if s[NAME] == name and _inside(s, windows)]

    def top_level_total(self, windows: List[Window]) -> float:
        """Seconds covered by parentless spans started inside ``windows``."""
        return sum(s[T1] - s[T0] for s in self.spans
                   if s[PARENT] < 0 and _inside(s, windows))

    def count(self, windows: List[Window]) -> int:
        return sum(1 for s in self.spans if _inside(s, windows))

    # -- export -------------------------------------------------------------
    def write_jsonl(self, path: str, header: Dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema": "perf.spans/v1", **header}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[ID], "parent": s[PARENT], "name": s[NAME],
                    "t0": s[T0], "t1": s[T1], "tick": s[TICK],
                    "n": s[N]}) + "\n")


def _inside(span: list, windows: Optional[List[Window]]) -> bool:
    if windows is None:
        return True
    return any(lo <= span[T0] < hi for lo, hi in windows)


def proxy_cost_s(calls: int = 20_000) -> float:
    """Measured cost of one timing-proxy call, on a throw-away tracer."""
    def noop() -> None:
        return None
    proxied = Tracer().wrap(noop, "probe")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        proxied()
    return max(time.perf_counter() - t0 - bare, 0.0) / calls
