"""Central registry of frame magics — every persisted format, one place.

Each on-disk/IPC format the runtime persists opens with an 8-byte
magic, verified by :func:`repro.util.framing.unframe_payload` before a
single body byte is parsed.  Declaring them all here (REP004) keeps
them unique — a collision would let one codec "successfully" verify
another codec's frames and decode garbage with a valid CRC — and makes
"what do we persist?" a one-file question.

Bump the trailing digit when a format's body layout changes; decoders
reject unknown magics as corruption, which is what makes stale caches
rebuild instead of misparse (docs/robustness.md).
"""

from __future__ import annotations

from typing import Final

__all__ = [
    "CHECKPOINT_MAGIC",
    "FRAME_MAGICS",
    "SHARD_RESULT_MAGIC",
    "WORLD_SNAPSHOT_MAGIC",
]

#: Shard/ticket result buffers (:mod:`repro.store.codec`).
SHARD_RESULT_MAGIC: Final = b"ECNSTOR4"

#: World snapshots, on disk and in the process cache (:mod:`repro.web.snapshot`).
WORLD_SNAPSHOT_MAGIC: Final = b"ECNWRLD3"

#: Per-week campaign checkpoints (:mod:`repro.pipeline.checkpoint`).
CHECKPOINT_MAGIC: Final = b"ECNCKPT1"

#: Every registered frame magic, by format name.
FRAME_MAGICS: Final[dict[str, bytes]] = {
    "shard-result": SHARD_RESULT_MAGIC,
    "world-snapshot": WORLD_SNAPSHOT_MAGIC,
    "campaign-checkpoint": CHECKPOINT_MAGIC,
}

# A magic collision silently cross-decodes formats; fail at import.
if len(set(FRAME_MAGICS.values())) != len(FRAME_MAGICS):
    raise AssertionError("frame magics must be unique")
if any(len(magic) != 8 for magic in FRAME_MAGICS.values()):
    raise AssertionError("frame magics must be exactly 8 bytes")
