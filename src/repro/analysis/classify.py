"""Observation classification into the paper's vocabulary."""

from __future__ import annotations

import enum

from repro.core.validation import ValidationOutcome
from repro.scanner.results import DomainObservation


class ValidationClass(enum.Enum):
    """Table 5 row vocabulary (+ classes our validator can also emit)."""

    CAPABLE = "Capable"
    UNDERCOUNT = "Undercount"
    REMARK_ECT1 = "Re-Marking ECT(1)"
    ALL_CE = "All CE"
    NON_MONOTONIC = "Non-Monotonic"
    BLACKHOLE = "Blackhole"
    NO_MIRRORING = "No Mirroring"
    UNAVAILABLE = "Unavailable"


_OUTCOME_TO_CLASS = {
    ValidationOutcome.CAPABLE: ValidationClass.CAPABLE,
    ValidationOutcome.UNDERCOUNT: ValidationClass.UNDERCOUNT,
    ValidationOutcome.WRONG_CODEPOINT: ValidationClass.REMARK_ECT1,
    ValidationOutcome.ALL_CE: ValidationClass.ALL_CE,
    ValidationOutcome.NON_MONOTONIC: ValidationClass.NON_MONOTONIC,
    ValidationOutcome.BLACKHOLE: ValidationClass.BLACKHOLE,
    ValidationOutcome.NO_MIRRORING: ValidationClass.NO_MIRRORING,
}


def validation_class_of(quic) -> ValidationClass:
    """Validation class of one :class:`QuicConnectionResult` (or None).

    The result-level entry point: store-backed analysis classifies
    each site's result once and counts it for the site's attempted
    domains, instead of re-deriving it per domain.
    """
    if quic is None or not quic.connected:
        return ValidationClass.UNAVAILABLE
    outcome = quic.validation_outcome
    if outcome in _OUTCOME_TO_CLASS:
        return _OUTCOME_TO_CLASS[outcome]
    return ValidationClass.NO_MIRRORING  # PENDING should not escape finish()


def validation_class(obs: DomainObservation) -> ValidationClass:
    """Map one observation to its validation class."""
    return validation_class_of(obs.quic)


def tcp_group(obs: DomainObservation) -> str | None:
    """Figure 6 TCP-side group label (None = unreachable via TCP)."""
    if obs.tcp is None or not obs.tcp.connected:
        return None
    if not obs.tcp.ecn_negotiated:
        return "No Negotiation"
    mirror = "CE Mirroring" if obs.tcp.ce_mirrored else "No CE Mirroring"
    use = "Use" if obs.tcp.server_set_ect else "No Use"
    return f"{mirror}, {use}, Negotiation"


def quic_group(obs: DomainObservation) -> str:
    """Figure 6 QUIC-side group label."""
    if obs.quic is None or not obs.quic.connected:
        return "No QUIC"
    mirror = "CE Mirroring" if obs.quic.mirroring else "No CE Mirroring"
    use = "Use" if obs.quic.server_set_ect else "No Use"
    return f"{mirror}, {use}"


def support_group(obs: DomainObservation) -> str:
    """Figure 5 category (per IP family)."""
    if obs.quic is None or not obs.quic.connected:
        return "Unavailable"
    mirror = "Mirroring" if obs.quic.mirroring else "No Mirroring"
    use = "Use" if obs.quic.server_set_ect else "No Use"
    return f"{mirror}, {use}"
