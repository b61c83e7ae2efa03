"""Canonical content digest of a nested result value.

:func:`fingerprint` is what every bit-identity claim in this repo is
stated in: the ``_PINNED`` tables of the test suite, the
workers=1 vs workers=N determinism gates, and the per-seed
``sim_fingerprint`` of ``benchmarks/perf``.  The bytes fed to sha256 are
therefore frozen — ``tests/test_determinism.py`` pins the digest of a
fixed nested value.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any

import numpy as np

__all__ = ["fingerprint"]


def fingerprint(value: Any) -> str:
    """Hex sha256 over dataclasses (as dicts), dicts (keys sorted by
    ``repr``), sequences, arrays (dtype, shape, C-order bytes) and the
    ``repr`` of anything else."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def _feed(h, value: Any) -> None:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _feed(h, dataclasses.asdict(value))
    elif isinstance(value, dict):
        for k in sorted(value, key=repr):
            h.update(repr(k).encode())
            _feed(h, value[k])
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for v in value:
            _feed(h, v)
        h.update(b"]")
    elif isinstance(value, np.ndarray):
        h.update(str(value.dtype).encode())
        h.update(repr(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
