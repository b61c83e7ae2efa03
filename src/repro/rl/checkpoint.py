"""Crash-safe checkpoint (de)serialization to ``.npz`` files.

The paper's deployment story (§4.4) moves a pre-trained model from the
offline trainer onto switches; this module gives that hand-off a wire
format.  State dicts in this repo are arbitrarily nested
``{str: dict | ndarray}`` structures (per-switch → actor/critic →
layer params); they are flattened to slash-separated keys for ``.npz``
and reassembled on load.

Format v2 adds crash safety on top of the plain v1 archive:

- **atomic writes** — the archive is written to a sibling temp file,
  fsync'd, then renamed over the target (and the directory fsync'd), so
  a crash mid-save never leaves a truncated checkpoint under the final
  name;
- **content checksum** — a SHA-256 over every array's name, dtype,
  shape and bytes is stored under the reserved ``__meta__/`` prefix and
  verified on load;
- **corruption detection** — truncated files, flipped bytes (zip CRC or
  checksum mismatch), and empty archives raise
  :class:`CheckpointCorruptError` instead of propagating arbitrary
  ``zipfile``/``numpy`` errors;
- :class:`CheckpointManager` — rotates the last-N good checkpoints and
  resumes from the newest *uncorrupted* one, transparently skipping
  damaged files;
- **concurrent writers** — the temp file carries a unique
  (per-process, per-call) name via :func:`tempfile.mkstemp`, so two
  workers saving the same target never interleave bytes in one temp
  file: whichever ``os.replace`` lands last wins atomically.  Rotation
  pruning tolerates races (a sibling manager may have removed the file
  first), which is what makes the manager safe under the parallel
  rollout engine (docs/PARALLEL.md).

v1 archives (no ``__meta__/`` entries) still load.  Paths are
normalized in both directions: ``save_checkpoint("ckpt")`` writes
``ckpt.npz`` and ``load_checkpoint("ckpt")`` finds it.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re
import tempfile
import zipfile
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = ["flatten_state", "unflatten_state", "save_checkpoint",
           "load_checkpoint", "CheckpointError", "CheckpointCorruptError",
           "CheckpointManager", "CHECKPOINT_VERSION"]

Nested = Dict[str, Union[np.ndarray, "Nested"]]

_SEP = "/"
_META_KEY = "__meta__"
CHECKPOINT_VERSION = 2


class CheckpointError(RuntimeError):
    """Base class for checkpoint I/O failures."""


class CheckpointCorruptError(CheckpointError):
    """The file exists but is truncated, damaged, or fails its checksum."""


def flatten_state(state: Nested, prefix: str = "") -> Dict[str, np.ndarray]:
    """Flatten nested dicts of arrays into slash-joined keys."""
    out: Dict[str, np.ndarray] = {}
    for key, value in state.items():
        if _SEP in str(key):
            raise ValueError(f"key {key!r} may not contain {_SEP!r}")
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten_state(value, prefix=path + _SEP))
        else:
            out[path] = np.asarray(value)
    return out


def unflatten_state(flat: Dict[str, np.ndarray]) -> Nested:
    """Inverse of :func:`flatten_state`."""
    out: Nested = {}
    for path, value in flat.items():
        parts = path.split(_SEP)
        node = out
        for part in parts[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ValueError(f"path conflict at {path!r}")
            node = nxt
        node[parts[-1]] = value
    return out


# -- path + checksum helpers ---------------------------------------------------
def _with_suffix(path: str) -> str:
    """``np.savez`` appends ``.npz`` to bare paths; normalize up front so
    save and load agree on the on-disk name."""
    return path if path.endswith(".npz") else path + ".npz"


def _resolve(path: str) -> str:
    """Find the on-disk file for a possibly suffix-less checkpoint path."""
    if os.path.exists(path):
        return path
    suffixed = _with_suffix(path)
    if suffixed != path and os.path.exists(suffixed):
        return suffixed
    raise FileNotFoundError(f"no checkpoint at {path!r} (or {suffixed!r})")


def _payload_digest(flat: Dict[str, np.ndarray]) -> str:
    """SHA-256 over sorted (key, dtype, shape, bytes) of every array."""
    h = hashlib.sha256()
    for key in sorted(flat):
        arr = np.ascontiguousarray(flat[key])
        h.update(key.encode("utf-8"))
        h.update(str(arr.dtype).encode("ascii"))
        h.update(repr(arr.shape).encode("ascii"))
        h.update(arr.tobytes())
    return h.hexdigest()


# -- save / load ---------------------------------------------------------------
def save_checkpoint(path: str, state: Nested) -> str:
    """Atomically write a (nested) state dict; returns the final path.

    The archive lands under its final name only once fully written and
    fsync'd (tmp + fsync + rename), and carries a content checksum that
    :func:`load_checkpoint` verifies.
    """
    flat = flatten_state(state)
    if not flat:
        raise ValueError("refusing to save an empty checkpoint")
    if any(k.split(_SEP, 1)[0] == _META_KEY for k in flat):
        raise ValueError(f"{_META_KEY!r} is a reserved top-level key")
    path = _with_suffix(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    payload = dict(flat)
    payload[f"{_META_KEY}{_SEP}version"] = np.asarray(CHECKPOINT_VERSION)
    payload[f"{_META_KEY}{_SEP}checksum"] = np.asarray(_payload_digest(flat))
    # Unique temp name per call: concurrent savers of the same target
    # each write their own temp file and race only on the atomic rename.
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, **payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path


def load_checkpoint(path: str, *, verify: bool = True) -> Nested:
    """Read a state dict written by :func:`save_checkpoint`.

    Raises :class:`CheckpointCorruptError` on truncated/damaged archives
    or a checksum mismatch; v1 files (no checksum) load with ``verify``
    skipped.
    """
    resolved = _resolve(path)
    flat: Dict[str, np.ndarray] = {}
    meta: Dict[str, np.ndarray] = {}
    try:
        with np.load(resolved) as data:
            if not data.files:
                raise CheckpointCorruptError(f"{resolved}: empty archive")
            for key in data.files:
                arr = data[key]          # zip CRC verified per member here
                if key.startswith(_META_KEY + _SEP):
                    meta[key.split(_SEP, 1)[1]] = arr
                else:
                    flat[key] = arr
    except CheckpointCorruptError:
        raise
    except FileNotFoundError:
        # A concurrent manager pruned the rotation between resolve and
        # read: the file is *gone*, not torn.  Propagate as-is so
        # readers walking a rotation skip to the next candidate instead
        # of mis-recording a corruption.
        raise
    except (zipfile.BadZipFile, ValueError, EOFError, KeyError, OSError) as exc:
        raise CheckpointCorruptError(f"{resolved}: unreadable archive "
                                     f"({exc})") from exc
    if not flat:
        raise CheckpointCorruptError(f"{resolved}: archive holds no tensors")
    if verify and "checksum" in meta:
        expected = str(meta["checksum"].item())
        actual = _payload_digest(flat)
        if actual != expected:
            raise CheckpointCorruptError(
                f"{resolved}: checksum mismatch "
                f"(expected {expected[:12]}…, got {actual[:12]}…)")
    return unflatten_state(flat)


# -- rotation + resume ---------------------------------------------------------
class CheckpointManager:
    """Rotating store of the last-N good checkpoints, with safe resume.

    Files are named ``{prefix}-{step:08d}.npz`` inside ``directory``.
    :meth:`save` writes atomically and prunes beyond ``keep``;
    :meth:`load_latest` walks from the newest file backwards, skipping
    anything corrupted (recorded in :attr:`skipped`), so training
    resumed through a manager transparently falls back to the previous
    good checkpoint.
    """

    def __init__(self, directory: str, *, keep: int = 3,
                 prefix: str = "ckpt") -> None:
        if keep < 1:
            raise ValueError("must keep at least one checkpoint")
        if _SEP in prefix or os.sep in prefix:
            raise ValueError("prefix may not contain path separators")
        self.directory = directory
        self.keep = keep
        self.prefix = prefix
        self.skipped: List[str] = []
        os.makedirs(directory, exist_ok=True)
        self._pattern = re.compile(
            rf"^{re.escape(prefix)}-(\d+)\.npz$")

    def _path(self, step: int) -> str:
        return os.path.join(self.directory, f"{self.prefix}-{step:08d}.npz")

    def checkpoints(self) -> List[Tuple[int, str]]:
        """Existing ``(step, path)`` pairs, oldest first."""
        out: List[Tuple[int, str]] = []
        for name in os.listdir(self.directory):
            m = self._pattern.match(name)
            if m:
                out.append((int(m.group(1)),
                            os.path.join(self.directory, name)))
        return sorted(out)

    def save(self, state: Nested, step: int) -> str:
        """Write one checkpoint for ``step`` and prune old rotations."""
        if step < 0:
            raise ValueError("step must be non-negative")
        path = save_checkpoint(self._path(step), state)
        for _, old in self.checkpoints()[:-self.keep]:
            # A concurrent manager over the same directory may prune the
            # same rotation first; losing that race is fine.
            with contextlib.suppress(FileNotFoundError):
                os.remove(old)
        return path

    def latest_step(self) -> Optional[int]:
        ckpts = self.checkpoints()
        return ckpts[-1][0] if ckpts else None

    def load_latest(self) -> Optional[Tuple[Nested, int]]:
        """``(state, step)`` from the newest uncorrupted checkpoint, or
        ``None`` when the directory has no loadable checkpoint at all."""
        return self.load_newer_than(None)

    def load_newer_than(self, step: Optional[int]
                        ) -> Optional[Tuple[Nested, int]]:
        """``(state, step)`` from the newest good checkpoint strictly
        newer than ``step`` (``None`` accepts any), or ``None`` when no
        newer loadable checkpoint exists.

        The serve plane's hot-reload path polls this: a torn or
        corrupted newest rotation is skipped (recorded in
        :attr:`skipped`) and an older-but-newer-than-``step`` rotation
        still loads, so a crash mid-save never wedges reloading.
        """
        for ckpt_step, path in reversed(self.checkpoints()):
            if step is not None and ckpt_step <= step:
                return None
            try:
                return load_checkpoint(path), ckpt_step
            except FileNotFoundError:
                continue            # pruned by a concurrent manager mid-walk
            except (CheckpointError, ValueError) as exc:
                self.skipped.append(f"{path}: {exc}")
        return None

    def restore_into(self, controller) -> Optional[int]:
        """Load the newest good state into ``controller.load_state_dict``;
        returns the resumed step, or ``None`` when starting fresh."""
        resumed = self.load_latest()
        if resumed is None:
            return None
        state, step = resumed
        controller.load_state_dict(state)
        return step
