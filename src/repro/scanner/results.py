"""Scan result records (what the adapted zgrab2 logged per target)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.terminology import EcnSupport
from repro.core.validation import ValidationOutcome
from repro.quic.connection import QuicConnectionResult
from repro.tcp.client import TcpScanOutcome


@dataclass(slots=True)
class SiteScanRecord:
    """Per-server-IP scan outcome (hosts behave per IP, §4.3)."""

    site_index: int
    ip: str
    quic: QuicConnectionResult | None = None
    tcp: TcpScanOutcome | None = None
    traced: bool = False


def server_label_of(quic: QuicConnectionResult | None) -> str:
    """Figure 3 server grouping of one QUIC result.

    The result-level entry point: store-backed analysis labels each
    site's result once and counts it for the site's attempted domains;
    the observation property below delegates here so the two paths
    share one grouping rule.
    """
    if quic is None or not quic.connected:
        return "Unavailable"
    header = quic.server_header
    if header is None:
        return "Unknown"
    if header in ("LiteSpeed", "Pepyaka"):
        return header
    return "Other"


class ObservationDerived:
    """Derived per-domain properties shared by every observation shape.

    Everything here reads only ``self.quic``, so the eager
    :class:`DomainObservation` and the columnar
    :class:`repro.store.views.ObservationView` inherit one definition —
    the store path cannot drift from the object path.  Slot-free on
    purpose (``__slots__ = ()``): both subclasses are slotted.
    """

    __slots__ = ()

    quic: QuicConnectionResult | None

    @property
    def quic_available(self) -> bool:
        return self.quic is not None and self.quic.connected

    @property
    def mirroring(self) -> bool:
        return self.quic is not None and self.quic.mirroring

    @property
    def uses_ecn(self) -> bool:
        return self.quic is not None and self.quic.server_set_ect

    @property
    def validation_outcome(self) -> ValidationOutcome | None:
        if self.quic is None:
            return None
        return self.quic.validation_outcome

    @property
    def support(self) -> EcnSupport | None:
        if self.quic is None:
            return None
        return EcnSupport(
            mirroring=self.quic.mirroring,
            capable=self.quic.validation_outcome is ValidationOutcome.CAPABLE,
            use=self.quic.server_set_ect,
        )

    @property
    def server_label(self) -> str:
        """Figure 3 grouping: LiteSpeed / Pepyaka / Other / Unknown."""
        return server_label_of(self.quic)

    @property
    def version_label(self) -> str | None:
        if self.quic is None or self.quic.version is None:
            return None
        return self.quic.version.label


@dataclass(slots=True)
class DomainObservation(ObservationDerived):
    """Everything one weekly scan learned about one domain.

    The per-domain reference loop materialises one of these per domain,
    so the class is slotted — keep new fields appended and defaulted.
    Store-backed runs skip the materialisation entirely and serve the
    same fields through :class:`repro.store.views.ObservationView`.
    """

    domain: str
    population: str  # "cno" | "toplist"
    lists: tuple[str, ...]
    parked: bool
    resolved: bool
    ip: str | None = None
    org: str = "<unknown>"
    site_index: int = -1
    quic_attempted: bool = False
    quic: QuicConnectionResult | None = None
    tcp: TcpScanOutcome | None = None
