"""DNS model: the A/AAAA/CNAME/NS record set of one domain."""

from repro.dns.records import DnsRecord

__all__ = ["DnsRecord"]
