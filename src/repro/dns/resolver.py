"""A miniature DNS with geo-dependent answers.

The distributed pipeline resolves every forwarded domain locally at each
cloud vantage point (§4.3), which matters because CDNs answer with
different infrastructure per location — the wix.com anomaly in §8 (US
West resolving to non-QUIC infrastructure) is exactly such a geo split.
Parking detection uses NS/CNAME records as in §5.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping


@dataclass(frozen=True)
class DnsRecord:
    """The records the study consumes for one domain."""

    a: str | None = None
    aaaa: str | None = None
    cname: str | None = None
    ns: tuple[str, ...] = ()

    @property
    def resolvable(self) -> bool:
        return self.a is not None or self.aaaa is not None


class Resolver:
    """Domain -> record store with per-vantage overrides.

    Records can be added explicitly (:meth:`add`) or derived on demand
    by a *fallback* (:meth:`set_fallback`): a callable consulted on a
    lookup miss.  The world builder uses the fallback as its DNS
    section — zone records are a pure function of the domain/site
    tables, so they are derived per call and never stored.  Explicit
    records and per-vantage overrides always win over the fallback.
    """

    def __init__(self) -> None:
        self._records: dict[str, DnsRecord] = {}
        self._overrides: dict[tuple[str, str], DnsRecord] = {}
        self._fallback = None
        #: Read-only view of the explicit records (:meth:`add`); the
        #: scan plan applies them on top of the table-derived answers.
        self.records: Mapping[str, DnsRecord] = MappingProxyType(self._records)

    # ------------------------------------------------------------------
    def add(self, domain: str, record: DnsRecord) -> None:
        self._records[domain] = record

    def add_override(self, vantage_id: str, domain: str, record: DnsRecord) -> None:
        """Install a geo-specific answer for one vantage point."""
        self._overrides[(vantage_id, domain)] = record

    def set_fallback(self, fallback) -> None:
        """Install the derivation hook (``fallback(domain) -> DnsRecord | None``)."""
        self._fallback = fallback

    # ------------------------------------------------------------------
    def resolve(self, domain: str, *, vantage_id: str | None = None) -> DnsRecord | None:
        """Full record set for ``domain`` as seen from ``vantage_id``."""
        if vantage_id is not None:
            override = self._overrides.get((vantage_id, domain))
            if override is not None:
                return override
        record = self._records.get(domain)
        if record is None and self._fallback is not None:
            record = self._fallback(domain)
        return record

    def resolve_address(
        self, domain: str, *, family: int = 4, vantage_id: str | None = None
    ) -> str | None:
        """First A (family=4) or AAAA (family=6) answer, or None."""
        record = self.resolve(domain, vantage_id=vantage_id)
        if record is None:
            return None
        return record.a if family == 4 else record.aaaa
