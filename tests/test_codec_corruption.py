"""Framed codecs reject every single bit flip and truncation.

The robustness contract (docs/robustness.md): a damaged buffer — torn
write, crashed worker, bit rot — raises the typed
:class:`~repro.util.framing.CodecCorruption` before a single body byte
is interpreted, for all three framed formats: shard result buffers
(``ECNSTOR4``), campaign checkpoints (``ECNCKPT1``) and world snapshots
(``ECNWRLD3``).  CRC32 detects all single-bit damage and the explicit
length field all truncations, so these are exhaustive guarantees, not
probabilistic ones; hypothesis picks the damage positions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.pipeline.checkpoint import (
    CHECKPOINT_MAGIC,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.quic.connection import QuicConnectionResult
from repro.store.codec import (
    CodecCorruption,
    decode_shard_results,
    encode_shard_results,
)
from repro.tcp.client import TcpScanOutcome
from repro.util.framing import frame_payload, unframe_payload
from repro.util.weeks import Week
from repro.web.snapshot import SnapshotCorruption, decode_world, encode_world
from repro.web.spec import WorldConfig


def _entries():
    quic = QuicConnectionResult(connected=True, server_header="LiteSpeed")
    tcp = TcpScanOutcome(connected=True, ecn_negotiated=True)
    return [(3, 0, quic, 0.25), (3, 1, tcp, 0.5), (7, 0, None, 1.75)]


@pytest.fixture(scope="module")
def shard_buffer() -> bytes:
    return encode_shard_results(_entries())


@pytest.fixture(scope="module")
def checkpoint_buffer() -> bytes:
    return encode_checkpoint("f" * 32, Week(2022, 30), _entries())


@pytest.fixture(scope="module")
def snapshot_buffer() -> bytes:
    return encode_world(repro.build_world(WorldConfig(scale=40_000)))


def _flip(buf: bytes, bit_index: int) -> bytes:
    out = bytearray(buf)
    out[bit_index // 8] ^= 1 << (bit_index % 8)
    return bytes(out)


# ----------------------------------------------------------------------
# Shard result buffers
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_bitflip_of_a_shard_buffer_raises(shard_buffer, data):
    bit = data.draw(st.integers(0, len(shard_buffer) * 8 - 1))
    with pytest.raises(CodecCorruption):
        decode_shard_results(_flip(shard_buffer, bit))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_truncation_of_a_shard_buffer_raises(shard_buffer, data):
    cut = data.draw(st.integers(0, len(shard_buffer) - 1))
    with pytest.raises(CodecCorruption):
        decode_shard_results(shard_buffer[:cut])


# ----------------------------------------------------------------------
# Campaign checkpoint frames
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_bitflip_of_a_checkpoint_raises(checkpoint_buffer, data):
    bit = data.draw(st.integers(0, len(checkpoint_buffer) * 8 - 1))
    with pytest.raises(CodecCorruption):
        decode_checkpoint(_flip(checkpoint_buffer, bit))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_truncation_of_a_checkpoint_raises(checkpoint_buffer, data):
    cut = data.draw(st.integers(0, len(checkpoint_buffer) - 1))
    with pytest.raises(CodecCorruption):
        decode_checkpoint(checkpoint_buffer[:cut])


def test_checkpoint_round_trips():
    entries = _entries()
    key, week, decoded = decode_checkpoint(
        encode_checkpoint("a" * 32, Week(2023, 15), entries)
    )
    assert key == "a" * 32
    assert week == Week(2023, 15)
    assert decoded == entries


# ----------------------------------------------------------------------
# World snapshots
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_bitflip_of_a_snapshot_raises(snapshot_buffer, data):
    bit = data.draw(st.integers(0, len(snapshot_buffer) * 8 - 1))
    with pytest.raises(SnapshotCorruption):
        decode_world(_flip(snapshot_buffer, bit))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_truncation_of_a_snapshot_raises(snapshot_buffer, data):
    cut = data.draw(st.integers(0, len(snapshot_buffer) - 1))
    with pytest.raises(SnapshotCorruption):
        decode_world(snapshot_buffer[:cut])


def test_snapshot_corruption_is_both_a_snapshot_and_codec_error():
    # Callers handling "any bad snapshot" and callers handling "any
    # corrupt codec artifact" must both catch it.
    from repro.web.snapshot import SnapshotError

    assert issubclass(SnapshotCorruption, SnapshotError)
    assert issubclass(SnapshotCorruption, CodecCorruption)
    assert issubclass(SnapshotCorruption, ValueError)


# ----------------------------------------------------------------------
# The frame primitive itself
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=256))
def test_frame_round_trips_arbitrary_bodies(body):
    assert unframe_payload(b"TESTMAG1", frame_payload(b"TESTMAG1", body)) == body


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=256), st.data())
def test_frame_detects_any_single_bitflip(body, data):
    framed = frame_payload(b"TESTMAG1", body)
    bit = data.draw(st.integers(0, len(framed) * 8 - 1))
    with pytest.raises(CodecCorruption):
        unframe_payload(b"TESTMAG1", _flip(framed, bit))


def test_frame_rejects_wrong_magic():
    framed = frame_payload(b"TESTMAG1", b"payload")
    with pytest.raises(CodecCorruption):
        unframe_payload(b"TESTMAG2", framed)
    assert framed[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC
