"""QUIC version numbers used by the measurement campaign.

The paper's client supports QUIC v1 plus drafts 27, 29, 32 and 34 for
longitudinal coverage (§4.1); Figure 4/8 labels use the short forms
``v1`` / ``d27`` / … reproduced by :meth:`QuicVersion.label`.
"""

from __future__ import annotations

import enum


class QuicVersion(enum.IntEnum):
    """Wire version numbers (draft versions use 0xff0000xx)."""

    V1 = 0x0000_0001
    DRAFT_27 = 0xFF00_001B
    DRAFT_29 = 0xFF00_001D
    DRAFT_32 = 0xFF00_0020
    DRAFT_34 = 0xFF00_0022

    @property
    def label(self) -> str:
        """Paper-style short label ("v1", "d27", ...)."""
        if self is QuicVersion.V1:
            return "v1"
        return f"d{self.value & 0xFF:d}"

    @classmethod
    def from_label(cls, label: str) -> "QuicVersion":
        for version in cls:
            if version.label == label:
                return version
        raise ValueError(f"unknown QUIC version label: {label!r}")


#: Client's preference order, newest first (like the adapted quic-go).
SUPPORTED_VERSIONS: tuple[QuicVersion, ...] = (
    QuicVersion.V1,
    QuicVersion.DRAFT_34,
    QuicVersion.DRAFT_32,
    QuicVersion.DRAFT_29,
    QuicVersion.DRAFT_27,
)
