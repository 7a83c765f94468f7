"""Compact binary codec for shard result batches.

The codec marshals one ticket-week's site-phase results into **one
flat buffer** instead of pickled result objects: varint-packed fields,
a deduplicating string table (server headers repeat massively across
sites), IEEE-754 doubles for the elapsed clock times (bit-exact, the
merged world clock must land on the same float), and enums by index.

The format is internal wire format, not an archive format: both ends
are the same build of this module, so there is no cross-version
schema negotiation — just a magic/version prefix to fail fast on
mismatched buffers.

Entries are ``(site_index, kind, result, elapsed)`` exactly as
:meth:`ScanEngine._execute_entries` produces them; decoding yields
objects that compare equal (``==``) to the originals, which the codec
round-trip tests and the pool golden tests pin.  The work is per
distinct result, not per entry: an encode marshals each result object
once, and a decode builds one object per distinct result encoding,
which every entry holding those bytes shares, as replay hits share
the engine's objects.

Version 2 adds a fixed three-varint header field carrying the worker's
exchange replay-cache counters (hits, misses, uncacheable) for the
encoded shard, so pool runs report the same cache accounting as the
in-process engine.  :func:`decode_shard_results` keeps returning
just the entries; :func:`decode_shard_payload_obs` returns them with
the counters.

Version 3 wraps every buffer in a **checksummed frame** —
``magic + body length + CRC32 + body`` (:func:`frame_payload` /
:func:`unframe_payload`) — shared with the world snapshot codec and the
campaign checkpoint files.  Any truncation or bit flip of a framed
buffer raises the typed :class:`CodecCorruption` before a single body
byte is interpreted: corrupted bytes never decode to plausible-but-
wrong results (crashed pool workers and torn checkpoint files can
produce exactly such buffers; docs/robustness.md).

Version 4 adds a length-prefixed **observability blob** after the
cache-stat varints: worker-side spans and metric deltas encoded by
:mod:`repro.obs.spans`, riding inside the same CRC-checked frame so
telemetry corruption is caught by the exact machinery that guards the
results.  The blob is opaque to this module (empty when the run is
uninstrumented); :func:`decode_shard_payload_obs` returns it as the
third element of ``(entries, cache stats, blob)``.

Measurement-plugin variants (``repro.plugins``) add a fourth entry
tag — :data:`_RESULT_ROW` — carrying a typed per-flow value tuple
(``None`` / bool / int / float / string-table ref per field) instead
of a full result object.  Plugin rows are what variants contribute to
the store, so shipping the row rather than the raw result keeps shard
and ticket frames small.  The tag is additive: buffers produced by
default (``ecn``-only) runs contain no row entries and remain
byte-identical to pre-plugin buffers, which keeps existing campaign
checkpoints valid.
"""

from __future__ import annotations

import struct
from typing import Iterable

from repro.core.counters import EcnCounts
from repro.core.validation import ValidationOutcome
from repro.quic.connection import QuicConnectionResult
from repro.quic.varint import decode_varint, encode_varint
from repro.quic.versions import QuicVersion
from repro.tcp.client import TcpScanOutcome
from repro.tcp.ebpf import CodepointCounter
from repro.util.framing import (
    CodecCorruption,
    CodecError,
    frame_payload,
    unframe_payload,
)
from repro.util.magics import SHARD_RESULT_MAGIC

__all__ = [
    "MAGIC",
    "CodecCorruption",
    "CodecError",
    "decode_shard_payload_obs",
    "decode_shard_results",
    "encode_shard_results",
    "frame_payload",
    "unframe_payload",
]

#: Buffer prefix: codec name + format version (central registry:
#: :mod:`repro.util.magics`).
MAGIC = SHARD_RESULT_MAGIC


_RESULT_NONE = 0
_RESULT_QUIC = 1
_RESULT_TCP = 2
_RESULT_ROW = 3

#: Shared-decode miss marker (a decoded result may be ``None``).
_UNSEEN = object()

# Plugin-row value tags (one per tuple element).
_V_NONE = 0
_V_FALSE = 1
_V_TRUE = 2
_V_INT = 3  # non-negative varint
_V_NEG_INT = 4  # varint of -(value + 1)
_V_FLOAT = 5  # IEEE-754 double
_V_STR = 6  # string-table ref

_OUTCOMES = tuple(ValidationOutcome)
_OUTCOME_INDEX = {outcome: index for index, outcome in enumerate(_OUTCOMES)}
_VERSIONS = tuple(QuicVersion)
_VERSION_INDEX = {version: index for index, version in enumerate(_VERSIONS)}

_DOUBLE = struct.Struct(">d")

# QUIC flag bits (byte 1)
_Q_CONNECTED = 1 << 0
_Q_MIRRORING = 1 << 1
_Q_SET_ECT = 1 << 2
_Q_HAS_VERSION = 1 << 3
_Q_HAS_STATUS = 1 << 4
_Q_HAS_FINGERPRINT = 1 << 5
_Q_HAS_MIRRORED = 1 << 6
# QUIC flag bits (byte 2: optional strings)
_Q_HAS_SERVER = 1 << 0
_Q_HAS_VIA = 1 << 1
_Q_HAS_ALT_SVC = 1 << 2
_Q_HAS_ERROR = 1 << 3

# TCP flag bits
_T_CONNECTED = 1 << 0
_T_NEGOTIATED = 1 << 1
_T_CE_MIRRORED = 1 << 2
_T_SET_ECT = 1 << 3
_T_HAS_STATUS = 1 << 4
_T_HAS_SERVER = 1 << 5
_T_HAS_ERROR = 1 << 6


class StringTable:
    """Deduplicating encode-side string pool.

    Shared codec primitive: shard-result buffers and world snapshots
    (:mod:`repro.web.snapshot`) both marshal repeated strings as varint
    references into one table written ahead of the entries.
    """

    __slots__ = ("strings", "index")

    def __init__(self) -> None:
        self.strings: list[str] = []
        self.index: dict[str, int] = {}

    def ref(self, value: str) -> int:
        ref = self.index.get(value)
        if ref is None:
            ref = len(self.strings)
            self.strings.append(value)
            self.index[value] = ref
        return ref


def encode_string_table(table: StringTable) -> bytes:
    """Marshal a string table: count, then length-prefixed UTF-8 entries."""
    out = bytearray(encode_varint(len(table.strings)))
    for value in table.strings:
        raw = value.encode("utf-8")
        out += encode_varint(len(raw))
        out += raw
    return bytes(out)


def decode_string_table(buf: bytes, offset: int) -> tuple[list[str], int]:
    """Inverse of :func:`encode_string_table`; returns (strings, offset)."""
    string_count, offset = decode_varint(buf, offset)
    strings: list[str] = []
    for _ in range(string_count):
        length, offset = decode_varint(buf, offset)
        # bytes() so memoryview callers (zero-copy world decode) work;
        # a slice of bytes is already a fresh object, so no extra copy.
        strings.append(bytes(buf[offset : offset + length]).decode("utf-8"))
        offset += length
    return strings, offset


def _encode_quic(result: QuicConnectionResult, out: bytearray, table: StringTable) -> None:
    flags = 0
    if result.connected:
        flags |= _Q_CONNECTED
    if result.mirroring:
        flags |= _Q_MIRRORING
    if result.server_set_ect:
        flags |= _Q_SET_ECT
    if result.version is not None:
        flags |= _Q_HAS_VERSION
    if result.response_status is not None:
        flags |= _Q_HAS_STATUS
    if result.transport_fingerprint is not None:
        flags |= _Q_HAS_FINGERPRINT
    if result.mirrored_counts is not None:
        flags |= _Q_HAS_MIRRORED
    string_flags = 0
    if result.server_header is not None:
        string_flags |= _Q_HAS_SERVER
    if result.via_header is not None:
        string_flags |= _Q_HAS_VIA
    if result.alt_svc is not None:
        string_flags |= _Q_HAS_ALT_SVC
    if result.error is not None:
        string_flags |= _Q_HAS_ERROR
    out.append(flags)
    out.append(string_flags)
    if result.version is not None:
        out.append(_VERSION_INDEX[result.version])
    if result.response_status is not None:
        out += encode_varint(result.response_status)
    if result.transport_fingerprint is not None:
        out += encode_varint(len(result.transport_fingerprint))
        for param, length in result.transport_fingerprint:
            out += encode_varint(param)
            out += encode_varint(length)
    out.append(_OUTCOME_INDEX[result.validation_outcome])
    counts = result.inbound_ecn_counts
    out += encode_varint(counts.ect0)
    out += encode_varint(counts.ect1)
    out += encode_varint(counts.ce)
    out += encode_varint(result.marked_sent)
    out += encode_varint(result.marked_acked)
    out += encode_varint(result.greased_sent)
    if result.mirrored_counts is not None:
        mirrored = result.mirrored_counts
        out += encode_varint(mirrored.ect0)
        out += encode_varint(mirrored.ect1)
        out += encode_varint(mirrored.ce)
    if result.server_header is not None:
        out += encode_varint(table.ref(result.server_header))
    if result.via_header is not None:
        out += encode_varint(table.ref(result.via_header))
    if result.alt_svc is not None:
        out += encode_varint(table.ref(result.alt_svc))
    if result.error is not None:
        out += encode_varint(table.ref(result.error))


def _decode_quic(
    buf: bytes, offset: int, strings: list[str]
) -> tuple[QuicConnectionResult, int]:
    flags = buf[offset]
    string_flags = buf[offset + 1]
    offset += 2
    version = None
    if flags & _Q_HAS_VERSION:
        version = _VERSIONS[buf[offset]]
        offset += 1
    status = None
    if flags & _Q_HAS_STATUS:
        status, offset = decode_varint(buf, offset)
    fingerprint = None
    if flags & _Q_HAS_FINGERPRINT:
        count, offset = decode_varint(buf, offset)
        pairs = []
        for _ in range(count):
            param, offset = decode_varint(buf, offset)
            length, offset = decode_varint(buf, offset)
            pairs.append((param, length))
        fingerprint = tuple(pairs)
    outcome = _OUTCOMES[buf[offset]]
    offset += 1
    ect0, offset = decode_varint(buf, offset)
    ect1, offset = decode_varint(buf, offset)
    ce, offset = decode_varint(buf, offset)
    marked_sent, offset = decode_varint(buf, offset)
    marked_acked, offset = decode_varint(buf, offset)
    greased_sent, offset = decode_varint(buf, offset)
    mirrored = None
    if flags & _Q_HAS_MIRRORED:
        m_ect0, offset = decode_varint(buf, offset)
        m_ect1, offset = decode_varint(buf, offset)
        m_ce, offset = decode_varint(buf, offset)
        mirrored = EcnCounts(m_ect0, m_ect1, m_ce)
    server_header = via_header = alt_svc = error = None
    if string_flags & _Q_HAS_SERVER:
        ref, offset = decode_varint(buf, offset)
        server_header = strings[ref]
    if string_flags & _Q_HAS_VIA:
        ref, offset = decode_varint(buf, offset)
        via_header = strings[ref]
    if string_flags & _Q_HAS_ALT_SVC:
        ref, offset = decode_varint(buf, offset)
        alt_svc = strings[ref]
    if string_flags & _Q_HAS_ERROR:
        ref, offset = decode_varint(buf, offset)
        error = strings[ref]
    result = QuicConnectionResult(
        connected=bool(flags & _Q_CONNECTED),
        version=version,
        server_header=server_header,
        via_header=via_header,
        alt_svc=alt_svc,
        response_status=status,
        transport_fingerprint=fingerprint,
        mirroring=bool(flags & _Q_MIRRORING),
        validation_outcome=outcome,
        server_set_ect=bool(flags & _Q_SET_ECT),
        inbound_ecn_counts=EcnCounts(ect0, ect1, ce),
        marked_sent=marked_sent,
        marked_acked=marked_acked,
        mirrored_counts=mirrored,
        greased_sent=greased_sent,
        error=error,
    )
    return result, offset


def _encode_tcp(outcome: TcpScanOutcome, out: bytearray, table: StringTable) -> None:
    flags = 0
    if outcome.connected:
        flags |= _T_CONNECTED
    if outcome.ecn_negotiated:
        flags |= _T_NEGOTIATED
    if outcome.ce_mirrored:
        flags |= _T_CE_MIRRORED
    if outcome.server_set_ect:
        flags |= _T_SET_ECT
    if outcome.response_status is not None:
        flags |= _T_HAS_STATUS
    if outcome.server_header is not None:
        flags |= _T_HAS_SERVER
    if outcome.error is not None:
        flags |= _T_HAS_ERROR
    out.append(flags)
    if outcome.response_status is not None:
        out += encode_varint(outcome.response_status)
    counter = outcome.inbound
    out += encode_varint(counter.not_ect)
    out += encode_varint(counter.ect0)
    out += encode_varint(counter.ect1)
    out += encode_varint(counter.ce)
    out += encode_varint(counter.ece_flags)
    out += encode_varint(counter.cwr_flags)
    if outcome.server_header is not None:
        out += encode_varint(table.ref(outcome.server_header))
    if outcome.error is not None:
        out += encode_varint(table.ref(outcome.error))


def _decode_tcp(buf: bytes, offset: int, strings: list[str]) -> tuple[TcpScanOutcome, int]:
    flags = buf[offset]
    offset += 1
    status = None
    if flags & _T_HAS_STATUS:
        status, offset = decode_varint(buf, offset)
    not_ect, offset = decode_varint(buf, offset)
    ect0, offset = decode_varint(buf, offset)
    ect1, offset = decode_varint(buf, offset)
    ce, offset = decode_varint(buf, offset)
    ece_flags, offset = decode_varint(buf, offset)
    cwr_flags, offset = decode_varint(buf, offset)
    server_header = error = None
    if flags & _T_HAS_SERVER:
        ref, offset = decode_varint(buf, offset)
        server_header = strings[ref]
    if flags & _T_HAS_ERROR:
        ref, offset = decode_varint(buf, offset)
        error = strings[ref]
    outcome = TcpScanOutcome(
        connected=bool(flags & _T_CONNECTED),
        ecn_negotiated=bool(flags & _T_NEGOTIATED),
        ce_mirrored=bool(flags & _T_CE_MIRRORED),
        server_set_ect=bool(flags & _T_SET_ECT),
        response_status=status,
        server_header=server_header,
        inbound=CodepointCounter(
            not_ect=not_ect,
            ect0=ect0,
            ect1=ect1,
            ce=ce,
            ece_flags=ece_flags,
            cwr_flags=cwr_flags,
        ),
        error=error,
    )
    return outcome, offset


def _encode_row(row: tuple[object, ...], out: bytearray, table: StringTable) -> None:
    out += encode_varint(len(row))
    for value in row:
        if value is None:
            out.append(_V_NONE)
        elif value is False:
            out.append(_V_FALSE)
        elif value is True:
            out.append(_V_TRUE)
        elif isinstance(value, int):
            if value >= 0:
                out.append(_V_INT)
                out += encode_varint(value)
            else:
                out.append(_V_NEG_INT)
                out += encode_varint(-value - 1)
        elif isinstance(value, float):
            out.append(_V_FLOAT)
            out += _DOUBLE.pack(value)
        elif isinstance(value, str):
            out.append(_V_STR)
            out += encode_varint(table.ref(value))
        else:
            raise TypeError(
                f"cannot encode plugin row value of type {type(value).__name__}"
            )


def _decode_row(
    buf: bytes, offset: int, strings: list[str]
) -> tuple[tuple[object, ...], int]:
    count, offset = decode_varint(buf, offset)
    values: list[object] = []
    for _ in range(count):
        tag = buf[offset]
        offset += 1
        if tag == _V_NONE:
            values.append(None)
        elif tag == _V_FALSE:
            values.append(False)
        elif tag == _V_TRUE:
            values.append(True)
        elif tag == _V_INT:
            value, offset = decode_varint(buf, offset)
            values.append(value)
        elif tag == _V_NEG_INT:
            value, offset = decode_varint(buf, offset)
            values.append(-value - 1)
        elif tag == _V_FLOAT:
            (value,) = _DOUBLE.unpack_from(buf, offset)
            offset += 8
            values.append(value)
        elif tag == _V_STR:
            ref, offset = decode_varint(buf, offset)
            values.append(strings[ref])
        else:
            raise ValueError(f"unknown plugin row value tag {tag}")
    return tuple(values), offset


def _encode_result(result: object, table: StringTable) -> bytes:
    out = bytearray()
    if result is None:
        out.append(_RESULT_NONE)
    elif isinstance(result, QuicConnectionResult):
        out.append(_RESULT_QUIC)
        _encode_quic(result, out, table)
    elif isinstance(result, TcpScanOutcome):
        out.append(_RESULT_TCP)
        _encode_tcp(result, out, table)
    elif isinstance(result, tuple):
        out.append(_RESULT_ROW)
        _encode_row(result, out, table)
    else:
        raise TypeError(f"cannot encode shard result of type {type(result).__name__}")
    return bytes(out)


def _decode_result(buf: bytes, offset: int, strings: list[str]) -> tuple[object, int]:
    tag = buf[offset]
    offset += 1
    if tag == _RESULT_NONE:
        return None, offset
    if tag == _RESULT_QUIC:
        return _decode_quic(buf, offset, strings)
    if tag == _RESULT_TCP:
        return _decode_tcp(buf, offset, strings)
    if tag == _RESULT_ROW:
        return _decode_row(buf, offset, strings)
    raise ValueError(f"unknown shard result tag {tag}")


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def encode_shard_results(
    entries: Iterable[tuple[int, int, object, float]],
    *,
    cache_stats: tuple[int, int, int] = (0, 0, 0),
    obs: bytes = b"",
) -> bytes:
    """Marshal one shard's ``(site, kind, result, elapsed)`` entries.

    One checksummed frame per shard: header (including the shard's
    exchange-cache ``(hits, misses, uncacheable)`` counters and an
    opaque length-prefixed ``obs`` telemetry blob), deduplicated string
    table, then the packed entries.  ``elapsed`` round-trips bit-exactly.

    Each distinct result object is encoded once per buffer: string
    references are local to the buffer, so a result's bytes cannot
    change between its entries, and replay hits share result objects.
    The memo holds every object it keys, so no id is recycled mid-loop.
    """
    table = StringTable()
    body = bytearray()
    encoded: dict[int, tuple[object, bytes]] = {}
    count = 0
    for site_index, kind, result, elapsed in entries:
        count += 1
        body += encode_varint(site_index)
        body.append(kind)
        body += _DOUBLE.pack(elapsed)
        memo = encoded.get(id(result))
        if memo is None:
            memo = encoded[id(result)] = (result, _encode_result(result, table))
        body += memo[1]
    out = bytearray()
    for counter in cache_stats:
        out += encode_varint(counter)
    out += encode_varint(len(obs))
    out += obs
    out += encode_string_table(table)
    out += encode_varint(count)
    out += body
    return frame_payload(MAGIC, bytes(out))


def decode_shard_payload_obs(
    buf: bytes,
) -> tuple[list[tuple[int, int, object, float]], tuple[int, int, int], bytes]:
    """Inverse of :func:`encode_shard_results`: (entries, cache stats, obs).

    The frame is verified first; a truncated or bit-flipped buffer
    raises :class:`CodecCorruption` without touching the body.  ``obs``
    is the opaque telemetry blob (``b""`` for uninstrumented shards) —
    decode it with :func:`repro.obs.spans.decode_obs_blob`.
    """
    # bytes() is a no-op on the already-bytes copy=True return; it only
    # narrows the static type from the codec's bytes|memoryview union.
    buf = bytes(unframe_payload(MAGIC, buf, what="shard result"))
    offset = 0
    hits, offset = decode_varint(buf, offset)
    misses, offset = decode_varint(buf, offset)
    uncacheable, offset = decode_varint(buf, offset)
    obs_len, offset = decode_varint(buf, offset)
    obs = bytes(buf[offset : offset + obs_len])
    offset += obs_len
    strings, offset = decode_string_table(buf, offset)
    entry_count, offset = decode_varint(buf, offset)
    # Entries with identical result bytes share one decoded object, as
    # replay hits do.  A result's bytes are self-delimiting and decode
    # the same wherever they sit in the buffer, so when the bytes at
    # ``offset`` start with an encoding decoded before, they are that
    # encoding: no other can be a prefix of it.
    shared: dict[bytes, object] = {}
    lengths: list[int] = []
    entries: list[tuple[int, int, object, float]] = []
    for _ in range(entry_count):
        site_index, offset = decode_varint(buf, offset)
        kind = buf[offset]
        offset += 1
        (elapsed,) = _DOUBLE.unpack_from(buf, offset)
        offset += 8
        for length in lengths:
            result = shared.get(buf[offset : offset + length], _UNSEEN)
            if result is not _UNSEEN:
                offset += length
                break
        else:
            start = offset
            result, offset = _decode_result(buf, offset, strings)
            shared[buf[start:offset]] = result
            if offset - start not in lengths:
                lengths.append(offset - start)
        entries.append((site_index, kind, result, elapsed))
    return entries, (hits, misses, uncacheable), obs


def decode_shard_results(buf: bytes) -> list[tuple[int, int, object, float]]:
    """Entries-only view of :func:`decode_shard_payload_obs`."""
    return decode_shard_payload_obs(buf)[0]
