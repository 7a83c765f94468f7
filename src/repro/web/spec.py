"""Specification dataclasses for the synthetic Internet.

All counts are given at *paper scale* (the real 2023 numbers); the world
builder divides by ``WorldConfig.scale``.  Quotas, not probabilities:
the builder assigns behaviours to exact numbers of sites/domains so that
prevalences are stable and deterministic at any scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.tcp.profiles import TcpProfile
from repro.util.weeks import Week


@dataclass(frozen=True)
class HostGroupSpec:
    """A behaviourally homogeneous slice of one provider's fleet.

    ``cno_domains`` counts resolved com/net/org domains served by the
    group; ``toplist_domains`` counts toplist domains (a separate domain
    population that shares the group's sites, like a CDN serving both).
    """

    key: str
    cno_domains: float
    ips: float
    quic_profile: str | None = None  # stack-registry key; None = no QUIC
    path_profile: str = "clean-transit"
    tcp_profile: TcpProfile = TcpProfile.FULL
    toplist_domains: float = 0.0
    ipv6_domains: float = 0.0  # subset of cno_domains that also has AAAA
    ipv6_path_profile: str | None = None  # defaults to clean-v6
    parked_domains: float = 0.0
    reachable: bool = True  # False: resolves but never answers (dark)
    notes: str = ""


@dataclass(frozen=True)
class ProviderSpec:
    """An AS organization operating one or more host groups."""

    name: str
    asn: int
    groups: tuple[HostGroupSpec, ...]
    sibling_asns: tuple[int, ...] = ()  # merged into the same org (as2org)
    sibling_org_labels: tuple[str, ...] = ()

    def group(self, key: str) -> HostGroupSpec:
        for group in self.groups:
            if group.key == key:
                return group
        raise KeyError(f"{self.name} has no group {key!r}")


@dataclass(frozen=True)
class VantageOverrideSpec:
    """Behaviour change for (vantage, provider/group).

    ``fraction`` selects the leading share of the group's sites the
    override applies to (1.0 = whole group).  ``unreachable`` models DNS
    delegating to infrastructure without a QUIC listener (the wix.com
    US-West anomaly); ``quic_profile`` swaps the stack (Google's India
    experiments).
    """

    vantage_id: str
    provider: str
    group_key: str
    quic_profile: str | None = None
    unreachable: bool = False
    fraction: float = 1.0


@dataclass(frozen=True)
class VantageSpec:
    """A measurement location."""

    vantage_id: str
    operator: str  # "main" | "aws" | "vultr"
    city: str
    lat: float
    lon: float
    source_ip: str
    #: Share of path-level re-marking kept on routes from here; the rest
    #: of the re-marking groups see clearing instead (total network-induced
    #: errors stay comparable across vantage points, §8).
    remark_retention: float = 1.0

    @property
    def marker(self) -> str:
        return {"main": "M", "aws": "A", "vultr": "V"}[self.operator]


@dataclass(frozen=True)
class WorldConfig:
    """Scale / seed / reference weeks of a world instance.

    ``scale`` is the divisor from paper counts to simulated counts:
    scale=1000 means one simulated domain stands for 1000 real ones.
    """

    scale: float = 1000.0
    seed: int = 20230415
    start_week: Week = Week(2022, 22)  # Jun 2022, first longitudinal point
    end_week: Week = Week(2023, 20)  # the TCP-comparison week
    reference_week: Week = Week(2023, 15)  # Table 1/2/4/5/6/7 snapshot
    ipv6_week: Week = Week(2023, 13)  # IPv6 measurement week (§6.2)
    tcp_week: Week = Week(2023, 20)  # TCP-vs-QUIC week (§6.3)

    def __post_init__(self) -> None:
        # One simulated domain stands for at least one real one; NaN,
        # infinity or a scale below 1 would build an empty, degenerate
        # or larger-than-paper world.
        if not (math.isfinite(self.scale) and self.scale >= 1):
            raise ValueError(f"scale must be a finite number >= 1, got {self.scale!r}")

    def quota(self, paper_count: float, *, min_one: bool = True) -> int:
        """Scale a paper count down to a simulated count.

        With ``min_one`` (the default for behaviour-defining quotas such
        as group domain counts), non-zero paper classes never vanish
        entirely — a class observed in the wild stays observable in the
        simulation.  Attribute quotas (toplist membership, parking, AAAA
        records) use plain rounding so coarse scales do not inflate small
        shares.
        """
        if paper_count <= 0:
            return 0
        scaled = round(paper_count / self.scale)
        if min_one:
            return max(1, scaled)
        return scaled
