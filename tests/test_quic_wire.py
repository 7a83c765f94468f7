"""QUIC wire codecs: varint, frames, packets, transport parameters."""

import pytest
from hypothesis import given, strategies as st

from repro.core.counters import EcnCounts
from repro.quic.frames import (
    AckFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    HandshakeDoneFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
    decode_frames,
    encode_frame,
    encode_frames,
)
from repro.quic.packets import (
    LongHeaderPacket,
    PacketNumberSpace,
    PacketType,
    ShortHeaderPacket,
    VersionNegotiationPacket,
    decode_packet,
    encode_packet,
)
from repro.quic.transport_params import (
    GOOGLE_PARAMS,
    LITESPEED_PARAMS,
    TransportParameters,
)
from repro.quic.varint import MAX_VARINT, decode_varint, encode_varint, varint_length
from repro.quic.versions import SUPPORTED_VERSIONS, QuicVersion


# ----------------------------------------------------------------------
# Varint
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=MAX_VARINT))
def test_varint_roundtrip(value):
    encoded = encode_varint(value)
    decoded, offset = decode_varint(encoded)
    assert decoded == value
    assert offset == len(encoded)
    assert len(encoded) == varint_length(value)


@pytest.mark.parametrize(
    "value,length",
    [(0, 1), (63, 1), (64, 2), (16383, 2), (16384, 4), (2**30 - 1, 4), (2**30, 8)],
)
def test_varint_boundary_lengths(value, length):
    assert varint_length(value) == length


def test_varint_out_of_range():
    with pytest.raises(ValueError):
        encode_varint(MAX_VARINT + 1)
    with pytest.raises(ValueError):
        encode_varint(-1)


def _reference_varint(value):
    """Table-free RFC 9000 §16 encoder: the two length bits, then the
    value big-endian in the remaining bits."""
    for prefix, length in enumerate((1, 2, 4, 8)):
        if value < 1 << (8 * length - 2):
            return (value | prefix << (8 * length - 2)).to_bytes(length, "big")
    raise ValueError(value)


@pytest.mark.parametrize(
    "value,encoded",
    [
        (0, "00"),
        (63, "3f"),
        (64, "4040"),
        (16383, "7fff"),
        (16384, "80004000"),
        (2**30 - 1, "bfffffff"),
        (2**30, "c000000040000000"),
        (MAX_VARINT, "ffffffffffffffff"),
        # RFC 9000 Appendix A.1, encode direction.
        (37, "25"),
        (15_293, "7bbd"),
        (494_878_333, "9d7f3e7d"),
        (151_288_809_941_952_652, "c2197c5eff14e88c"),
    ],
)
def test_varint_boundary_encodings(value, encoded):
    assert encode_varint(value).hex() == encoded


@pytest.mark.parametrize("value", [-1, -2, -63, -64, -65, MAX_VARINT + 1, 2**64])
def test_varint_rejects_out_of_range_values(value):
    # Negatives must not index the one-byte table from its end.
    with pytest.raises(ValueError):
        encode_varint(value)


@given(
    st.integers(min_value=0, max_value=1 << 6)
    | st.integers(min_value=0, max_value=1 << 15)
    | st.integers(min_value=0, max_value=MAX_VARINT)
)
def test_varint_fast_path_matches_reference_encoder(value):
    encoded = encode_varint(value)
    assert encoded == _reference_varint(value)
    assert decode_varint(encoded) == (value, len(encoded))


def test_varint_truncated_input():
    with pytest.raises(ValueError):
        decode_varint(b"")
    with pytest.raises(ValueError):
        decode_varint(bytes([0b0100_0000]))  # 2-byte prefix, 1 byte given


def test_varint_rfc9000_examples():
    """Worked examples from RFC 9000 Appendix A.1."""
    assert decode_varint(bytes.fromhex("c2197c5eff14e88c"))[0] == 151_288_809_941_952_652
    assert decode_varint(bytes.fromhex("9d7f3e7d"))[0] == 494_878_333
    assert decode_varint(bytes.fromhex("7bbd"))[0] == 15_293
    assert decode_varint(bytes.fromhex("25"))[0] == 37


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
ecn_counts = st.builds(
    EcnCounts,
    ect0=st.integers(min_value=0, max_value=1 << 20),
    ect1=st.integers(min_value=0, max_value=1 << 20),
    ce=st.integers(min_value=0, max_value=1 << 20),
)


@given(
    st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=40),
    st.one_of(st.none(), ecn_counts),
)
def test_ack_frame_roundtrip(pns, ecn):
    frame = AckFrame.for_packets(pns, ecn=ecn)
    decoded = decode_frames(encode_frame(frame))
    assert len(decoded) == 1
    assert decoded[0].acked_packet_numbers() == set(pns)
    assert decoded[0].ecn == ecn


def test_ack_frame_type_selects_ecn_variant():
    no_ecn = encode_frame(AckFrame.for_packets({1, 2}))
    with_ecn = encode_frame(AckFrame.for_packets({1, 2}, ecn=EcnCounts(1, 0, 0)))
    assert no_ecn[0] == 0x02
    assert with_ecn[0] == 0x03


def test_ack_acknowledges():
    frame = AckFrame.for_packets({0, 1, 5})
    assert frame.acknowledges(5)
    assert not frame.acknowledges(3)
    assert frame.largest_acknowledged == 5


def test_ack_empty_set_rejected():
    with pytest.raises(ValueError):
        AckFrame.for_packets(set())


@given(st.binary(max_size=200), st.integers(min_value=0, max_value=1000))
def test_crypto_frame_roundtrip(data, offset):
    decoded = decode_frames(encode_frame(CryptoFrame(offset, data)))
    assert decoded == [CryptoFrame(offset, data)]


@given(
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=1000),
    st.binary(max_size=100),
    st.booleans(),
)
def test_stream_frame_roundtrip(stream_id, offset, data, fin):
    decoded = decode_frames(encode_frame(StreamFrame(stream_id, offset, data, fin=fin)))
    assert decoded == [StreamFrame(stream_id, offset, data, fin=fin)]


def test_mixed_frame_sequence_roundtrip():
    frames = (
        PaddingFrame(3),
        PingFrame(),
        AckFrame.for_packets({7}, ecn=EcnCounts(5, 0, 1)),
        CryptoFrame(0, b"hello"),
        HandshakeDoneFrame(),
        ConnectionCloseFrame(error_code=7, reason=b"bye"),
    )
    decoded = decode_frames(encode_frames(frames))
    assert tuple(decoded) == frames


def test_unknown_frame_type_raises():
    with pytest.raises(ValueError):
        decode_frames(bytes([0xFF]))


# ----------------------------------------------------------------------
# Packets
# ----------------------------------------------------------------------
@given(
    st.sampled_from([PacketType.INITIAL, PacketType.HANDSHAKE]),
    st.sampled_from(list(QuicVersion)),
    st.integers(min_value=0, max_value=1 << 30),
    st.binary(min_size=0, max_size=20),
)
def test_long_header_roundtrip(packet_type, version, pn, token):
    packet = LongHeaderPacket(
        packet_type=packet_type,
        version=version,
        dcid=b"\x01" * 8,
        scid=b"\x02" * 8,
        packet_number=pn,
        frames=(CryptoFrame(0, b"x"),),
        token=token if packet_type is PacketType.INITIAL else b"",
    )
    assert decode_packet(encode_packet(packet)) == packet


@given(st.integers(min_value=0, max_value=1 << 30))
def test_short_header_roundtrip(pn):
    packet = ShortHeaderPacket(
        dcid=b"\x11" * 8, packet_number=pn, frames=(PingFrame(),)
    )
    assert decode_packet(encode_packet(packet), dcid_len=8) == packet


def test_version_negotiation_roundtrip():
    packet = VersionNegotiationPacket(
        dcid=b"\x01" * 8,
        scid=b"\x02" * 8,
        supported_versions=(QuicVersion.V1, QuicVersion.DRAFT_29),
    )
    assert decode_packet(encode_packet(packet)) == packet


def test_token_only_on_initial():
    with pytest.raises(ValueError):
        LongHeaderPacket(
            packet_type=PacketType.HANDSHAKE,
            version=QuicVersion.V1,
            dcid=b"",
            scid=b"",
            packet_number=0,
            frames=(),
            token=b"tok",
        )


def test_pn_spaces():
    assert (
        LongHeaderPacket(
            packet_type=PacketType.INITIAL,
            version=QuicVersion.V1,
            dcid=b"",
            scid=b"",
            packet_number=0,
            frames=(),
        ).pn_space
        is PacketNumberSpace.INITIAL
    )
    assert (
        ShortHeaderPacket(dcid=b"", packet_number=0, frames=()).pn_space
        is PacketNumberSpace.APPLICATION
    )


# ----------------------------------------------------------------------
# Versions
# ----------------------------------------------------------------------
def test_version_labels():
    assert QuicVersion.V1.label == "v1"
    assert QuicVersion.DRAFT_27.label == "d27"
    assert QuicVersion.DRAFT_34.label == "d34"


def test_version_from_label_roundtrip():
    for version in QuicVersion:
        assert QuicVersion.from_label(version.label) is version


def test_client_prefers_v1():
    assert SUPPORTED_VERSIONS[0] is QuicVersion.V1


# ----------------------------------------------------------------------
# Transport parameters
# ----------------------------------------------------------------------
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=0x20),
        st.integers(min_value=0, max_value=1 << 40),
        max_size=12,
    )
)
def test_transport_params_roundtrip(mapping):
    params = TransportParameters.from_dict(mapping)
    assert TransportParameters.decode(params.encode()) == params


def test_stack_fingerprints_are_distinct():
    assert LITESPEED_PARAMS.fingerprint() != GOOGLE_PARAMS.fingerprint()


def test_fingerprint_is_stable():
    assert LITESPEED_PARAMS.fingerprint() == LITESPEED_PARAMS.fingerprint()
