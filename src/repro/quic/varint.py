"""RFC 9000 §16 variable-length integer encoding.

Two most-significant bits of the first byte select the length
(1/2/4/8 bytes); the remaining bits carry the value big-endian.
"""

from __future__ import annotations

MAX_VARINT = (1 << 62) - 1

_LENGTH_BY_PREFIX = {0b00: 1, 0b01: 2, 0b10: 4, 0b11: 8}

#: Value mask per length prefix (the two prefix bits stripped).
_MASK_BY_PREFIX = (0x3F, (1 << 14) - 1, (1 << 30) - 1, (1 << 62) - 1)


def varint_length(value: int) -> int:
    """Number of bytes the encoding of ``value`` occupies."""
    if value < 0 or value > MAX_VARINT:
        raise ValueError(f"varint out of range: {value}")
    if value < 1 << 6:
        return 1
    if value < 1 << 14:
        return 2
    if value < 1 << 30:
        return 4
    return 8


#: The one-byte encodings, indexed by value: nearly every count and
#: string reference the result codecs write is below 64.
_SMALL = tuple(bytes([value]) for value in range(1 << 6))

#: Length-prefix bits per encoded length, shifted into the top byte.
_PREFIX_BY_LENGTH = {2: 0b01 << 14, 4: 0b10 << 30, 8: 0b11 << 62}


def encode_varint(value: int) -> bytes:
    """Encode ``value`` as an RFC 9000 varint."""
    if 0 <= value < 1 << 6:
        return _SMALL[value]
    length = varint_length(value)
    return (value | _PREFIX_BY_LENGTH[length]).to_bytes(length, "big")


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``data`` at ``offset``.

    Returns ``(value, next_offset)``.  This sits on the hot path of
    both the simulated wire and the result codec, so the common
    single-byte case returns without any slicing and longer values go
    through one ``int.from_bytes`` instead of a per-byte loop.
    """
    try:
        first = data[offset]
    except IndexError:
        raise ValueError("varint truncated: empty input") from None
    prefix = first >> 6
    if not prefix:
        return first & 0x3F, offset + 1
    length = 1 << prefix
    end = offset + length
    chunk = data[offset:end]
    if len(chunk) != length:
        raise ValueError("varint truncated")
    return int.from_bytes(chunk, "big") & _MASK_BY_PREFIX[prefix], end
