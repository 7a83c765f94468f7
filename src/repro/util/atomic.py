"""Atomic file publication (tmp + ``os.replace``).

Every on-disk artifact that must survive a crash — world snapshots,
campaign checkpoints — publishes through one code path.  The contract:
a reader either sees the complete previous file or the complete new
file, never a partial write, even if the writer is killed mid-write.
"""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write_bytes(path: str | os.PathLike[str], buf: bytes) -> Path:
    """Atomically publish ``buf`` at ``path``; returns the final path.

    The payload lands in a same-directory temp file first (``os.replace``
    is only atomic within one filesystem) and the temp name is unique
    per writer *process*, so concurrent writers sharing one directory
    cannot truncate each other's in-flight file before the rename.  A
    writer killed between write and replace leaves only a stale ``.tmp``
    file behind, never a partial final file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(buf)  # repro-lint: skip[REP004] this IS the atomic-write primitive

    os.replace(tmp, path)
    return path
