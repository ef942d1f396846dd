"""Shared-memory-backed NumPy arrays for the process-rank harness.

A :class:`SharedNDArray` is an ``ndarray`` whose buffer lives in a
``multiprocessing.shared_memory`` segment, so a forked rank and its
parent read and write *the same pages*.  :mod:`repro.distributed.harness`
uses anonymous segments for its control arrays (created before the fork
and inherited) and named segments for the rank mailboxes (attached by
constructed name after the fence).

Lifecycle rules:

* the creating side owns the segment and is the only one to ``unlink``;
* an attachment is never registered with the resource tracker, so a
  rank's exit can never tear down a segment its peers still use;
* ``unlink`` only removes the name; mappings stay valid until released,
  so a late-collected view is harmless.
"""

from __future__ import annotations

import atexit
import os
import threading
import uuid
from contextlib import contextmanager

import numpy as np

__all__ = [
    "SharedNDArray",
    "create_shared_array",
    "attach_shared_array",
    "create_named_shared_array",
    "launch_token",
    "register_launch_segment",
    "cleanup_launch_segments",
]

try:  # pragma: no cover - exercised implicitly everywhere
    from multiprocessing import shared_memory as _shm_mod
except ImportError:  # pragma: no cover - ancient/stripped pythons
    _shm_mod = None


def shared_memory_available() -> bool:
    """True when multiprocessing.shared_memory can be used on this host."""
    if _shm_mod is None:
        return False
    try:
        seg = _shm_mod.SharedMemory(create=True, size=8)
    except (OSError, PermissionError):  # pragma: no cover - no /dev/shm
        return False
    seg.close()
    seg.unlink()
    return True


@contextmanager
def _untracked():
    """Suppress resource-tracker registration while attaching a segment.

    Python's resource tracker unlinks every segment a process registered
    when that process's tracker shuts down.  Attachments in rank processes
    must not count as ownership — only the creating process may unlink.
    Un-registering *after* the attach is wrong under fork (ranks share
    the parent's tracker, so the message would strip the parent's own
    registration); suppressing the registration instead is side-effect
    free in both fork and spawn (the canonical workaround until
    ``track=False`` of Python 3.13 is the floor).
    """
    try:
        from multiprocessing import resource_tracker

        orig_reg = resource_tracker.register
        orig_unreg = resource_tracker.unregister
        resource_tracker.register = lambda *a, **k: None
        # unlink() of an untracked segment would otherwise send an
        # unregister for a name the tracker never saw (noisy KeyError
        # in the tracker process).
        resource_tracker.unregister = lambda *a, **k: None
    except Exception:  # pragma: no cover - tracker API moved
        yield
        return
    try:
        yield
    finally:
        resource_tracker.register = orig_reg
        resource_tracker.unregister = orig_unreg


class SharedNDArray(np.ndarray):
    """An ndarray over a shared-memory segment."""

    _shm = None  # keeps the mapping alive for all derived views

    def __array_finalize__(self, obj) -> None:
        if obj is not None:
            self._shm = getattr(obj, "_shm", None)

    # -- segment management ---------------------------------------------------

    @property
    def segment_name(self) -> str | None:
        return self._shm.name if self._shm is not None else None

    def unlink(self) -> None:
        """Remove the segment name (owner side).  Mappings stay valid."""
        if self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def close(self) -> None:
        """Best-effort release of this process's mapping.

        CPython refuses to close a segment whose buffer is still
        exported by a live ndarray (``BufferError``) — force-closing
        would leave the array pointing at unmapped pages.  In that case
        the mapping is released when the views are garbage-collected
        instead: ``close`` is advisory, ``unlink`` is the hard cleanup.
        """
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:
                pass


def _wrap(shm, shape, dtype) -> SharedNDArray:
    arr = np.ndarray(shape, dtype=dtype, buffer=shm.buf).view(SharedNDArray)
    arr._shm = shm
    return arr


def create_shared_array(shape, dtype) -> SharedNDArray:
    """Allocate a zero-initialised shared array (owner side)."""
    if _shm_mod is None:  # pragma: no cover
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    dtype = np.dtype(dtype)
    size = max(1, int(np.prod(np.atleast_1d(shape))) * dtype.itemsize)
    shm = _shm_mod.SharedMemory(create=True, size=size)
    arr = _wrap(shm, shape, dtype)
    if arr.size:
        arr.fill(0)
    return arr


def attach_shared_array(name: str, shape, dtype) -> SharedNDArray:
    """Attach to an existing segment (peer side)."""
    if _shm_mod is None:  # pragma: no cover
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    with _untracked():
        shm = _shm_mod.SharedMemory(name=name)
    return _wrap(shm, shape, np.dtype(dtype))


# -- named segments (the rank-exchange mailboxes) ---------------------------
#
# The process-rank exchange (repro.distributed.harness) needs segments
# peers can attach *by constructed name* — rank r publishes its outbox as
# ``repro-<token>-out<r>`` and every peer derives the same string.  Names
# must therefore be collision-proof across concurrent launches on one
# host: a PID alone is not (two launches can live in one process, and
# PIDs recycle), so every launch draws a fresh :func:`launch_token`
# mixing the PID with random bytes, and creation is O_EXCL — a name
# collision raises instead of silently sharing pages.
#
# Cleanup: named segments outlive their creating *process* by design
# (rank children exit before the parent reads their results), so the
# creating side registers every name under its launch token and the
# parent unlinks the lot — explicitly via
# :func:`cleanup_launch_segments`, or at interpreter exit for launches a
# crash left behind (the atexit sweep below).

_LAUNCH_SEGMENTS: dict[str, set[str]] = {}
_LAUNCH_LOCK = threading.Lock()


def launch_token() -> str:
    """A host-unique token for one multi-process launch's segment names."""
    return f"{os.getpid():x}-{uuid.uuid4().hex[:12]}"


def register_launch_segment(token: str, name: str) -> None:
    """Record *name* for cleanup under *token* (idempotent)."""
    with _LAUNCH_LOCK:
        _LAUNCH_SEGMENTS.setdefault(token, set()).add(name)


def cleanup_launch_segments(token: str | None = None) -> int:
    """Unlink every segment registered under *token* (all tokens when
    None); returns how many names were actually removed.  Safe to call
    repeatedly — missing segments are skipped."""
    if _shm_mod is None:  # pragma: no cover
        return 0
    with _LAUNCH_LOCK:
        tokens = [token] if token is not None else list(_LAUNCH_SEGMENTS)
        names: list[str] = []
        for t in tokens:
            names.extend(_LAUNCH_SEGMENTS.pop(t, ()))
    removed = 0
    for name in names:
        try:
            with _untracked():
                seg = _shm_mod.SharedMemory(name=name)
        except (FileNotFoundError, OSError):
            continue
        try:
            with _untracked():
                seg.close()
                seg.unlink()
            removed += 1
        except (FileNotFoundError, OSError):  # pragma: no cover - raced
            pass
    return removed


atexit.register(cleanup_launch_segments)


def create_named_shared_array(
    name: str, shape, dtype, token: str | None = None
) -> SharedNDArray:
    """Allocate a zero-initialised shared array under an explicit *name*.

    Creation is exclusive (``O_EXCL``): an existing segment of the same
    name raises :class:`FileExistsError` instead of being reused, which
    is what makes token-derived names collision-proof across concurrent
    launches.  The creating process is *not* registered with the
    resource tracker — rank children exit before their peers and the
    parent finish reading, and tracked ownership would tear the segment
    down with them.  Pass *token* to register the name for
    :func:`cleanup_launch_segments`.
    """
    if _shm_mod is None:  # pragma: no cover
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    dtype = np.dtype(dtype)
    size = max(1, int(np.prod(np.atleast_1d(shape))) * dtype.itemsize)
    with _untracked():
        shm = _shm_mod.SharedMemory(name=name, create=True, size=size)
    if token is not None:
        register_launch_segment(token, name)
    arr = _wrap(shm, shape, dtype)
    if arr.size:
        arr.fill(0)
    return arr
