"""Deterministic flow→path hashing shared by every router in the repo.

ECMP path selection must be a pure function of the flow id: the packet
switch (:mod:`repro.netsim.switch`), the monolithic fluid router
(:class:`repro.netsim.fluid.FluidNetwork`) and the sharded fat-tree
router (:mod:`repro.netsim.shard`) all pick among equal-cost next hops
with the *same* mix, so a flow lands on the same spine/core no matter
which simulator is stepping it.

The mix is splitmix64 (Steele et al., the JDK ``SplittableRandom``
finalizer): a full-avalanche 64-bit permutation with well-studied
statistical quality.  Builtin ``hash()`` is explicitly *not* usable
here — its value is implementation-defined, differs across interpreter
versions (and, for ``str``/``bytes`` keys, across processes under
``PYTHONHASHSEED``), so fingerprint-pinned routing decisions would be
unpinnable.  Lint rule PET007 enforces this module as the only hash
source in sim-state code.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["splitmix64", "ecmp_hash", "splitmix64_array", "ecmp_hash_array"]

_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(x: int) -> int:
    """Full-avalanche 64-bit mix of ``x`` (splitmix64 finalizer)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def ecmp_hash(flow_id: int, n: int) -> int:
    """Deterministic equal-cost choice: index in ``[0, n)`` for a flow.

    Pure in ``flow_id`` — reroutes after topology changes re-pick the
    same path whenever the candidate set is unchanged.
    """
    if n <= 0:
        raise ValueError("ecmp_hash needs a non-empty choice set")
    return splitmix64(flow_id) % n


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` of every element of a ``uint64`` array.

    ``uint64`` array arithmetic wraps modulo 2**64, which is exactly the
    scalar version's masking, so the two agree on every id.
    """
    if x.dtype != np.uint64:
        raise TypeError("splitmix64_array needs a uint64 array")
    x = x + 0x9E3779B97F4A7C15
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    return x ^ (x >> 31)


def ecmp_hash_array(flow_ids: np.ndarray,
                    n: Union[int, np.ndarray]) -> np.ndarray:
    """:func:`ecmp_hash` of a ``uint64`` id array, as ``int64`` indices.

    ``n`` is one choice-set size for every flow, or one per flow.
    """
    n = np.asarray(n, dtype=np.int64)
    if (n <= 0).any():
        raise ValueError("ecmp_hash needs a non-empty choice set")
    return (splitmix64_array(flow_ids) % n.astype(np.uint64)).astype(np.int64)
