"""Checksummed buffer framing shared by every on-disk/IPC codec.

One frame layout — ``magic + body length + CRC32 + body`` — wraps the
shard result codec (:mod:`repro.store.codec`), the world snapshot
codec (:mod:`repro.web.snapshot`) and the campaign checkpoint files
(:mod:`repro.pipeline.checkpoint`).  Verification happens before a
single body byte is interpreted, so a truncated or bit-flipped buffer
raises the typed :class:`CodecCorruption` instead of decoding to
plausible-but-wrong results (the failure mode crashed fork-pool workers
and torn files actually produce; see docs/robustness.md).

This module lives in :mod:`repro.util` because the codecs that share
it sit on opposite sides of an import cycle (the shard codec pulls the
QUIC/TCP result stack, which imports ``repro.web`` right back).
"""

from __future__ import annotations

import struct
import zlib


class CodecError(ValueError):
    """A buffer a codec cannot decode."""


class CodecCorruption(CodecError):
    """A framed buffer whose magic, length or checksum does not verify."""


#: Frame header behind the magic: little-endian body length + CRC32.
_FRAME_HEADER = struct.Struct("<II")


def frame_payload(magic: bytes, body: bytes) -> bytes:
    """Wrap ``body`` in a checksummed frame: magic, length, CRC32, body."""
    return magic + _FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def unframe_payload(
    magic: bytes,
    buf: bytes,
    *,
    what: str = "framed",
    error: type[CodecCorruption] = CodecCorruption,
    copy: bool = True,
) -> bytes | memoryview:
    """Verify a frame written by :func:`frame_payload`; return its body.

    Raises ``error`` (a :class:`CodecCorruption` subclass) on bad magic,
    a length that disagrees with the buffer, or a checksum mismatch —
    which covers every truncation and every single bit flip: a flip in
    the body or checksum fails the CRC, one in the length field
    disagrees with the actual size, one in the magic fails the prefix
    check.

    With ``copy=False`` the body comes back as a read-only
    ``memoryview`` into ``buf`` instead of a fresh ``bytes`` — the
    zero-copy path the world-snapshot decoder uses, so a ``--world-cache``
    read does not copy the multi-megabyte body a second time.  The CRC
    is verified either way.
    """
    header_end = len(magic) + _FRAME_HEADER.size
    if bytes(buf[: len(magic)]) != magic:
        raise error(f"not a {what} buffer (bad magic)")
    if len(buf) < header_end:
        raise error(f"truncated {what} buffer (incomplete frame header)")
    body_len, crc = _FRAME_HEADER.unpack_from(buf, len(magic))
    if copy:
        body = bytes(buf[header_end:])
    else:
        body = memoryview(buf)[header_end:].toreadonly()
    if len(body) != body_len:
        raise error(
            f"corrupt {what} buffer: frame declares {body_len} body bytes, "
            f"found {len(body)}"
        )
    if zlib.crc32(body) != crc:
        raise error(f"corrupt {what} buffer: checksum mismatch")
    return body
