"""ASN -> organization mapping with sibling merging (as2org analogue).

The paper fuses ASes operated by the same provider (e.g. "Cloudflare
London" into "Cloudflare") using CAIDA's as2org dataset before ranking
providers; :meth:`AsOrgMap.merge` reproduces that step.
"""

from __future__ import annotations

class AsOrgMap:
    """Mutable ASN -> organization-name table."""

    UNKNOWN = "<unknown>"

    def __init__(self) -> None:
        self._org_by_asn: dict[int, str] = {}
        self._canonical: dict[str, str] = {}

    def add(self, asn: int, org: str) -> None:
        self._org_by_asn[asn] = org

    def merge(self, alias: str, canonical: str) -> None:
        """Record that ``alias`` is the same organization as ``canonical``."""
        self._canonical[alias] = canonical

    def org_for(self, asn: int | None) -> str:
        if asn is None:
            return self.UNKNOWN
        org = self._org_by_asn.get(asn, self.UNKNOWN)
        seen = {org}
        while org in self._canonical:
            org = self._canonical[org]
            if org in seen:  # defensive: alias cycles
                break
            seen.add(org)
        return org

    def entries(self) -> list[tuple[int, str]]:
        """All (asn, org) rows as added (for serialisation)."""
        return sorted(self._org_by_asn.items())

    def merges(self) -> list[tuple[str, str]]:
        """All (alias, canonical) merge rows (for serialisation)."""
        return sorted(self._canonical.items())

    def asns_for(self, org: str) -> list[int]:
        return sorted(
            asn for asn in self._org_by_asn if self.org_for(asn) == org
        )
