"""Shared-memory world segments (the fork-pool's zero-copy transport).

One encoded ECNWRLD2 snapshot buffer (:mod:`repro.web.snapshot`) is
published to a named ``multiprocessing.shared_memory`` segment exactly
once per campaign; persistent pool workers attach at startup and decode
their world straight from the mapped view — :func:`decode_world`
accepts a ``memoryview``, so the only full copy of the world buffer in
the whole system is the segment itself.  Platforms without working
POSIX shared memory fall back to an anonymous ``mmap``: forked workers
inherit the mapping, and an anonymous mapping cannot outlive the
processes that hold it, so the fallback is leak-proof by construction.

Leak discipline for the named backend: the *creating* process owns the
segment and must :meth:`SharedSegment.unlink` it.
:class:`~repro.pipeline.sharding.ShmPoolScanEngine` does so in
``close()`` — which the campaign loop's ``finally`` reaches on clean
runs, injected aborts and crashed workers alike (regression-tested in
``tests/test_shm_pool.py`` and ``tests/test_fault_injection.py``).  Every created segment is also recorded in
a module registry; tests assert :func:`live_segments` is empty after a
run and scan ``/dev/shm`` for :data:`SEGMENT_PREFIX` to prove nothing
leaked at the OS level either.  Should the parent die before
``close()``, Python's resource tracker unlinks the named segment at
interpreter exit.
"""

from __future__ import annotations

import itertools
import mmap
import multiprocessing
import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from multiprocessing.shared_memory import SharedMemory

#: Name prefix of every named segment this module creates.  Segments
#: appear as ``/dev/shm/<name>`` on Linux; leak tests scan for this.
SEGMENT_PREFIX = "ecnw"

_COUNTER = itertools.count()

#: Segments created by this process and not yet unlinked.
_LIVE: dict[str, "SharedSegment"] = {}


def fork_available() -> bool:
    """Whether this platform can fork pool workers (POSIX only)."""
    return "fork" in multiprocessing.get_all_start_methods()


def shared_memory_available() -> bool:
    """Whether named POSIX shared memory actually *works* here.

    Importing :mod:`multiprocessing.shared_memory` succeeds on platforms
    (and in sandboxes) where creating a segment then fails, so this
    probes with a real one-byte segment.
    """
    try:
        from multiprocessing import shared_memory

        probe = shared_memory.SharedMemory(create=True, size=1)
    except Exception:
        return False
    probe.close()
    probe.unlink()
    return True


def live_segments() -> list[str]:
    """Names of segments this process created and has not unlinked."""
    return sorted(_LIVE)


class SharedSegment:
    """A read-only shared byte buffer with an owned lifecycle.

    :meth:`create` copies ``data`` into a named shared-memory segment
    (``backend="shm"``) or, when that is unavailable, an anonymous mmap
    (``backend="mmap"``).  :meth:`view` returns a read-only memoryview
    of exactly the published bytes; forked children inherit the mapping
    and decode from it with no further copy.  The creating process must
    call :meth:`unlink` (idempotent) to destroy the segment; attachers
    may call :meth:`close` to drop their mapping early, though process
    exit does the same.
    """

    def __init__(
        self,
        name: str,
        size: int,
        backend: str,
        shm: "SharedMemory | None",
        map_: mmap.mmap | None,
    ) -> None:
        self.name = name
        self.size = size
        self.backend = backend
        self._shm = shm
        self._map = map_

    @classmethod
    def create(
        cls,
        data: bytes | bytearray | memoryview,
        *,
        backend: str | None = None,
    ) -> "SharedSegment":
        """Publish ``data`` (any bytes-like) as a new shared segment."""
        data = memoryview(data)
        size = data.nbytes
        if backend is None:
            backend = "shm" if shared_memory_available() else "mmap"
        if backend == "shm":
            from multiprocessing import shared_memory

            name = f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_COUNTER)}"
            shm = shared_memory.SharedMemory(name=name, create=True, size=max(1, size))
            shm.buf[:size] = data
            segment = cls(name, size, "shm", shm, None)
        elif backend == "mmap":
            map_ = mmap.mmap(-1, max(1, size))
            map_[:size] = data
            name = f"{SEGMENT_PREFIX}-anon-{os.getpid()}-{next(_COUNTER)}"
            segment = cls(name, size, "mmap", None, map_)
        else:
            raise ValueError(f"unknown shared-segment backend: {backend!r}")
        _LIVE[segment.name] = segment
        return segment

    def view(self) -> memoryview:
        """Read-only view of the published bytes (valid until unlink)."""
        raw = self._shm.buf if self._shm is not None else memoryview(self._map)
        return raw[: self.size].toreadonly()

    def close(self) -> None:
        """Drop this process's mapping (attacher side; idempotent).

        A still-exported view pins the mapping — that is not a leak
        (process exit releases it), so ``BufferError`` is swallowed.
        """
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:
                pass
        if self._map is not None:
            try:
                self._map.close()
            except BufferError:
                pass

    def unlink(self) -> None:
        """Destroy the segment (owner side; idempotent).

        Removes the OS object (named backend) and this segment from the
        live registry, then drops the local mapping.  Safe to call with
        attachers still alive — their mappings persist until they exit,
        POSIX semantics — and safe to call twice.
        """
        if _LIVE.pop(self.name, None) is None:
            return
        if self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self.close()

    def __enter__(self) -> "SharedSegment":
        return self

    def __exit__(self, *exc: object) -> None:
        self.unlink()


__all__ = [
    "SEGMENT_PREFIX",
    "SharedSegment",
    "fork_available",
    "live_segments",
    "shared_memory_available",
]
