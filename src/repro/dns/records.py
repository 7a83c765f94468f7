"""The DNS records the study consumes for one domain.

Resolution is a pure function of the built world's domain and site
tables: :meth:`repro.web.world.World.resolve` derives a domain's
record on each lookup (:func:`repro.web.world.dns_record_for`), and the
scan plan applies the same zone rule column-wise.  Parking detection
reads the NS/CNAME records as in §5.1.
"""

from __future__ import annotations

from dataclasses import dataclass


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
