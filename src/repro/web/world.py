"""World builder: turn provider specs into hosts, DNS, routes and stacks.

The built :class:`World` exposes exactly what a measurement pipeline can
touch: a resolver, a routed network, and per-site server stacks resolved
for a given week and vantage point.  QUIC adoption grows over the
measurement period (ramp from ~81 % of the final fleet in June 2022 to
100 % by spring 2023), reproducing the rising total of Figure 3 and the
"Unavailable" flows of Figure 4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.asdb.as2org import AsOrgMap
from repro.asdb.prefixtree import PrefixTree
from repro.dns.resolver import DnsRecord, Resolver
from repro.http.messages import HttpResponse
from repro.netsim.clock import Clock
from repro.netsim.network import Network
from repro.quicstacks.base import QuicServerStack
from repro.quicstacks.registry import StackRegistry, default_registry
from repro.tcp.profiles import TcpProfile
from repro.tcp.server import TcpServerStack
from repro.util.rng import RngStream, stable_hash
from repro.util.weeks import Week, week_range
from repro.web.paths import (
    ADDR_BLOCK,
    AS_ARELION,
    AS_AWS,
    AS_COGENT,
    AS_DFN,
    AS_DTAG,
    AS_LEVEL3,
    AS_VULTR,
    RouteBuilder,
    effective_path_profile,
)
from repro.web.providers import (
    UNRESOLVED_CNO,
    UNRESOLVED_TOPLIST,
    default_providers,
    default_vantage_overrides,
    default_vantages,
)
from repro.web.spec import (
    HostGroupSpec,
    ProviderSpec,
    VantageOverrideSpec,
    VantageSpec,
    WorldConfig,
)

#: QUIC fleet share already deployed at the start of the campaign.
ADOPTION_START_SHARE = 0.81
#: Week at which the fleet reaches its final size.
ADOPTION_FULL_WEEK = Week(2023, 13)

TOPLIST_NAMES = ("alexa", "umbrella", "majestic", "tranco")


@dataclass
class Site:
    """One server IP (v4, optionally v6) with homogeneous behaviour."""

    index: int
    provider: ProviderSpec
    group: HostGroupSpec
    ip: str
    ipv6: str | None
    route_key: str
    position_in_group: int
    group_site_count: int
    domain_count: int = 0
    toplist_domain_count: int = 0
    #: Week-invariant attribution, materialised once at world build so the
    #: scan hot loop never walks the prefix trie (see docs/architecture.md).
    asn: int | None = None
    org: str = AsOrgMap.UNKNOWN

    @property
    def group_fraction(self) -> float:
        """This site's rank within its group, in [0, 1)."""
        return self.position_in_group / max(1, self.group_site_count)


@dataclass(slots=True)
class Domain:
    """One scanned domain."""

    name: str
    site_index: int  # -1 = unresolvable
    population: str  # "cno" | "toplist"
    lists: tuple[str, ...]
    parked: bool = False
    has_aaaa: bool = False
    adoption_rank: float = 0.0  # QUIC availability threshold


@dataclass(frozen=True)
class SitePolicy:
    """Effective behaviour of a site as seen from one vantage point."""

    quic_profile: str | None
    tcp_profile: TcpProfile
    reachable: bool


class World:
    """A fully built synthetic Internet.

    Several expensive parts of the world are **lazy sections**,
    materialised on first touch and identical whether the world came
    from :func:`build_world` or from a snapshot
    (:mod:`repro.web.snapshot`):

    * **routes** — one section per vantage point, built by a
      :class:`~repro.web.paths.RouteBuilder` on the first route lookup
      from that vantage (:meth:`ensure_routes`; router addresses are a
      pure function of the section, not of materialisation order);
    * **DNS records** — derived per domain from the domain/site tables
      on the first resolve (the resolver fallback, memoised);
    * **site attribution** — the per-site ASN/org trie walk, run once
      before the first scan plan (:meth:`ensure_site_attribution`);
    * **responses / policies** — per-site canned responses and
      per-(site, vantage) policies, memoised on the first exchange that
      touches the site (:meth:`site_response` / :meth:`site_policy`).
    """

    def __init__(
        self,
        config: WorldConfig,
        providers: list[ProviderSpec],
        vantages: list[VantageSpec],
        overrides: list[VantageOverrideSpec],
    ):
        self.config = config
        self.provider_list = list(providers)
        self.vantage_list = list(vantages)
        self.override_list = list(overrides)
        self.providers = {p.name: p for p in providers}
        self.vantages = {v.vantage_id: v for v in vantages}
        self.clock = Clock()
        self.rng = RngStream(config.seed, "world")
        self.network = Network(self.clock, self.rng.child("network"))
        self.stack_registry: StackRegistry = default_registry()
        self.resolver = Resolver()
        self.asorg = AsOrgMap()
        self.prefixes = PrefixTree()
        self.sites: list[Site] = []
        self.domains: list[Domain] = []
        self._site_domains: list[list[int]] | None = None
        self._site_domains_count = -1
        self._sites_by_ip: dict[str, Site] = {}
        self._overrides: dict[tuple[str, str, str], list[VantageOverrideSpec]] = {}
        self._policy_cache: dict[tuple[int, str], SitePolicy] = {}
        self._response_cache: dict[bool, HttpResponse] = {}
        self._scan_engine = None
        for override in overrides:
            key = (override.vantage_id, override.provider, override.group_key)
            self._overrides.setdefault(key, []).append(override)
        # Lazy sections: every vantage's routes start pending; DNS
        # records derive on demand; attribution is marked stale by the
        # populate step.
        self._pending_route_sections: dict[str, int] = {
            vantage.vantage_id: index
            for index, vantage in enumerate(self.vantage_list)
        }
        self._route_ranks: dict[tuple[str, str], float] | None = None
        self._attribution_stale = False
        self._domain_name_index: dict[str, int] | None = None
        self._dns_indexed_count = -1
        self.network.set_section_loader(self.ensure_routes)
        self.resolver.set_fallback(self._derive_dns_record)

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    @property
    def site_domains(self) -> list[list[int]]:
        """Per-site indices into ``domains`` (the attribution fan-out lists).

        A lazy section: a pure function of the domain table, derived on
        first access and rebuilt if the table has grown since (tests
        attach domains post-build).
        """
        cached = self._site_domains
        if cached is None or self._site_domains_count != len(self.domains):
            cached = [[] for _ in self.sites]
            for index, domain in enumerate(self.domains):
                if domain.site_index >= 0:
                    cached[domain.site_index].append(index)
            self._site_domains = cached
            self._site_domains_count = len(self.domains)
        return cached

    def site_by_ip(self, ip: str) -> Site | None:
        return self._sites_by_ip.get(ip)

    def site_of(self, domain: Domain) -> Site | None:
        if domain.site_index < 0:
            return None
        return self.sites[domain.site_index]

    def domains_of(self, site: Site) -> list[Domain]:
        """All domains attached to ``site`` (world order)."""
        return [self.domains[i] for i in self.site_domains[site.index]]

    def scan_engine(self):
        """The world's site-first :class:`~repro.pipeline.engine.ScanEngine`.

        Created lazily (the pipeline package imports this module) and
        shared so scan plans amortise across weekly runs and campaigns.
        """
        if self._scan_engine is None:
            from repro.pipeline.engine import ScanEngine

            self._scan_engine = ScanEngine(self)
        return self._scan_engine

    def weeks(self) -> list[Week]:
        return list(week_range(self.config.start_week, self.config.end_week))

    # ------------------------------------------------------------------
    # Adoption ramp (Figure 3 total line)
    # ------------------------------------------------------------------
    def adoption_share(self, week: Week) -> float:
        start = self.config.start_week
        if week >= ADOPTION_FULL_WEEK:
            return 1.0
        total = max(1, ADOPTION_FULL_WEEK - start)
        elapsed = max(0, week - start)
        return ADOPTION_START_SHARE + (1.0 - ADOPTION_START_SHARE) * elapsed / total

    def domain_has_quic_listener(self, domain: Domain, week: Week) -> bool:
        """Whether the domain's site already rolled out QUIC at ``week``."""
        return domain.adoption_rank < self.adoption_share(week)

    # ------------------------------------------------------------------
    # Per-vantage behaviour resolution
    # ------------------------------------------------------------------
    def site_policy(self, site: Site, vantage_id: str) -> SitePolicy:
        """Effective (memoized) behaviour of ``site`` from ``vantage_id``.

        Overrides are fixed at construction time, so the resolved policy
        is cached per (site index, vantage) — a weekly scan evaluates the
        override windows at most once per site instead of once per domain.
        """
        key = (site.index, vantage_id)
        cached = self._policy_cache.get(key)
        if cached is not None and self.sites[site.index] is site:
            return cached
        policy = self._compute_site_policy(site, vantage_id)
        # Only world-owned sites are safe to memoize by index (tests may
        # probe hand-built Site objects that share an index).
        if 0 <= site.index < len(self.sites) and self.sites[site.index] is site:
            self._policy_cache[key] = policy
        return policy

    def _compute_site_policy(self, site: Site, vantage_id: str) -> SitePolicy:
        group = site.group
        quic_profile = group.quic_profile
        reachable = group.reachable
        key = (vantage_id, site.provider.name, group.key)
        window_start = 0.0
        for override in self._overrides.get(key, ()):
            window_end = window_start + override.fraction
            if window_start <= site.group_fraction < window_end:
                if override.unreachable:
                    reachable = False
                if override.quic_profile is not None:
                    quic_profile = override.quic_profile
                break
            window_start = window_end
        return SitePolicy(
            quic_profile=quic_profile,
            tcp_profile=group.tcp_profile,
            reachable=reachable,
        )

    # ------------------------------------------------------------------
    # Lazy sections: routes, DNS, attribution
    # ------------------------------------------------------------------
    def ensure_routes(self, vantage_id: str) -> bool:
        """Materialise the route section of one vantage point.

        Installed as the network's section loader, so any route lookup
        miss triggers it; call it directly to pre-materialise (campaigns
        do, before a pool publishes the world to its workers).  Returns True if
        the section was pending and is now built.
        """
        index = self._pending_route_sections.pop(vantage_id, None)
        if index is None:
            return False
        vantage = self.vantages.get(vantage_id)
        if vantage is None:  # pragma: no cover - defensive
            return False
        if self._route_ranks is None:
            self._route_ranks = _remark_group_ranks(self.provider_list)
        _register_vantage_routes(
            self, vantage, self.provider_list, self._route_ranks,
            base=index * ADDR_BLOCK,
        )
        return True

    def ensure_all_routes(self) -> None:
        """Materialise every pending route section (distributed runs)."""
        for vantage_id in list(self._pending_route_sections):
            self.ensure_routes(vantage_id)

    def _derive_dns_record(self, name: str) -> DnsRecord | None:
        """The resolver's lazy section: derive one domain's zone record.

        Records are a pure function of the domain/site tables
        (:func:`dns_record_for`), so nothing is materialised at build
        time; the resolver memoises every non-None answer.  The
        name index rebuilds when the domain table grows (tests attach
        domains post-build).
        """
        index = self._domain_name_index
        if index is None or self._dns_indexed_count != len(self.domains):
            index = {domain.name: i for i, domain in enumerate(self.domains)}
            self._domain_name_index = index
            self._dns_indexed_count = len(self.domains)
        domain_index = index.get(name)
        if domain_index is None:
            return None
        domain = self.domains[domain_index]
        if domain.site_index < 0:
            return None
        return dns_record_for(domain, self.sites[domain.site_index])

    def section_state(self) -> dict[str, object]:
        """Which lazy sections are still pending (introspection/tests)."""
        return {
            "pending_route_sections": sorted(self._pending_route_sections),
            "attribution_stale": self._attribution_stale,
            "dns_records_materialised": self.resolver.known_domains(),
        }

    # ------------------------------------------------------------------
    # Week-invariant site attribution (lazy; see ensure_site_attribution)
    # ------------------------------------------------------------------
    def ensure_site_attribution(self) -> None:
        """Materialise per-site ASN/org if the section is still stale.

        The scan engine calls this before building a plan; small
        workloads that never plan a scan (single traces, greasing
        subsets) skip the full per-site trie walk entirely.
        """
        if self._attribution_stale:
            self.refresh_site_attribution()

    def refresh_site_attribution(self) -> None:
        """(Re)compute per-site ASN and organisation.

        One prefix-trie walk per *site* instead of one per domain per
        weekly scan.  Call again after mutating ``prefixes`` or
        ``asorg`` post-build: the scan engine bakes ``Site.org`` into
        its cached plans, so those are invalidated here too.
        """
        lookup = self.prefixes.lookup
        org_for = self.asorg.org_for
        for site in self.sites:
            site.asn = lookup(site.ip)
            site.org = org_for(site.asn)
        self._attribution_stale = False
        if self._scan_engine is not None:
            self._scan_engine.invalidate()

    # ------------------------------------------------------------------
    # Server construction
    # ------------------------------------------------------------------
    def site_response(self, site: Site) -> HttpResponse:
        """The canned response this site serves to any request.

        The body depends only on whether the site's group serves QUIC
        (the alt-svc header), so the two possible responses are built
        once per world and shared — responses are frozen value objects.
        The exchange replay cache keys on this object: sites serving the
        same response flavour are indistinguishable at the HTTP layer.
        """
        advertises_h3 = site.group.quic_profile is not None
        response = self._response_cache.get(advertises_h3)
        if response is None:
            headers = [("content-type", "text/html")]
            if advertises_h3:
                headers.append(("alt-svc", 'h3=":443"; ma=86400'))
            response = HttpResponse(
                status=200, headers=tuple(headers), body=b"<html>ok</html>"
            )
            self._response_cache[advertises_h3] = response
        return response

    def make_response_factory(self, site: Site):
        response = self.site_response(site)
        return lambda _raw: response

    def quic_server(
        self, site: Site, week: Week, vantage_id: str, *, ip_version: int = 4
    ) -> QuicServerStack | None:
        policy = self.site_policy(site, vantage_id)
        if not policy.reachable or policy.quic_profile is None:
            return None
        behavior = self.stack_registry.behavior(policy.quic_profile, week)
        if not behavior.quic_enabled:
            return None
        return QuicServerStack(
            behavior, self.make_response_factory(site), ip_version=ip_version
        )

    def tcp_server(self, site: Site, week: Week, vantage_id: str) -> TcpServerStack | None:
        policy = self.site_policy(site, vantage_id)
        if not policy.reachable:
            return None
        return TcpServerStack(policy.tcp_profile, self.make_response_factory(site))



def build_world(
    config: WorldConfig | None = None,
    *,
    providers: list[ProviderSpec] | None = None,
    vantages: list[VantageSpec] | None = None,
    overrides: list[VantageOverrideSpec] | None = None,
) -> World:
    """Construct the default calibrated world (or a customised one)."""
    config = config or WorldConfig()
    providers = providers if providers is not None else default_providers()
    vantages = vantages if vantages is not None else default_vantages()
    overrides = overrides if overrides is not None else default_vantage_overrides()
    world = World(config, providers, vantages, overrides)
    _populate_asdb(world, providers)
    _populate_sites_and_domains(world, providers)
    _populate_unresolved(world)
    # Routes, DNS records and site attribution are lazy sections —
    # nothing more to do here; they materialise on first touch (and a
    # snapshot rehydrate lands in exactly this state, which is what
    # makes the two worlds golden-identical).
    world._attribution_stale = True
    return world


# ----------------------------------------------------------------------
# Build steps
# ----------------------------------------------------------------------
def _populate_asdb(world: World, providers: list[ProviderSpec]) -> None:
    transit = {
        AS_DFN: "DFN",
        AS_DTAG: "Deutsche Telekom",
        AS_ARELION: "Arelion (Telia Carrier)",
        AS_COGENT: "Cogent",
        AS_LEVEL3: "Level3",
        AS_AWS: "Amazon",
        AS_VULTR: "Vultr",
    }
    for asn, org in transit.items():
        world.asorg.add(asn, org)
    for provider in providers:
        world.asorg.add(provider.asn, provider.name)
        for sibling_asn, label in zip(provider.sibling_asns, provider.sibling_org_labels, strict=True):
            world.asorg.add(sibling_asn, label)
            world.asorg.merge(label, provider.name)


def _tld_cycle():
    return itertools.cycle(("com", "net", "org"))


def _populate_sites_and_domains(world: World, providers: list[ProviderSpec]) -> None:
    config = world.config
    for pidx, provider in enumerate(providers):
        octet = 64 + pidx
        world.prefixes.insert(f"100.{octet}.0.0/16", provider.asn)
        world.prefixes.insert(f"2001:db8:{pidx:x}::/48", provider.asn)
        site_counter = 0
        for group in provider.groups:
            n_sites = config.quota(group.ips)
            n_cno = config.quota(group.cno_domains)
            n_sites = min(n_sites, max(1, n_cno))  # never more sites than domains
            group_sites: list[Site] = []
            wants_v6 = group.ipv6_domains > 0
            for position in range(n_sites):
                serial = site_counter
                site_counter += 1
                ip = f"100.{octet}.{(serial >> 8) & 0xFF}.{serial & 0xFF}"
                ipv6 = f"2001:db8:{pidx:x}::{serial + 1:x}" if wants_v6 else None
                site = Site(
                    index=len(world.sites),
                    provider=provider,
                    group=group,
                    ip=ip,
                    ipv6=ipv6,
                    route_key=f"{provider.name}/{group.key}",
                    position_in_group=position,
                    group_site_count=n_sites,
                )
                world.sites.append(site)
                world._sites_by_ip[ip] = site
                if ipv6:
                    world._sites_by_ip[ipv6] = site
                group_sites.append(site)
            _add_domains(world, provider, group, group_sites, n_cno)


def _add_domains(
    world: World,
    provider: ProviderSpec,
    group: HostGroupSpec,
    group_sites: list[Site],
    n_cno: int,
) -> None:
    config = world.config
    slug = provider.name.lower().replace(" ", "-")
    tlds = _tld_cycle()
    n_parked = config.quota(group.parked_domains, min_one=False)
    n_aaaa = config.quota(group.ipv6_domains, min_one=False)
    for j in range(n_cno):
        site = group_sites[j % len(group_sites)]
        name = f"{slug}-{group.key}-{j:05d}.{next(tlds)}"
        parked = j < n_parked
        has_aaaa = site.ipv6 is not None and j < n_aaaa
        domain = Domain(
            name=name,
            site_index=site.index,
            population="cno",
            lists=("cno",),
            parked=parked,
            has_aaaa=has_aaaa,
            adoption_rank=stable_hash("adopt", name) % 10_000 / 10_000.0,
        )
        _attach_domain(world, domain, site)
        site.domain_count += 1
    n_top = config.quota(group.toplist_domains, min_one=False)
    for j in range(n_top):
        site = group_sites[j % len(group_sites)]
        name = f"top-{slug}-{group.key}-{j:04d}.com"
        membership = tuple(
            list_name
            for list_name in TOPLIST_NAMES
            if stable_hash("toplist", list_name, name) % 100 < 70
        ) or ("tranco",)
        domain = Domain(
            name=name,
            site_index=site.index,
            population="toplist",
            lists=membership,
            adoption_rank=stable_hash("adopt", name) % 10_000 / 10_000.0,
        )
        _attach_domain(world, domain, site)
        site.toplist_domain_count += 1


def _attach_domain(world: World, domain: Domain, site: Site) -> None:
    """The one place a domain joins a site.  Neither the fan-out binding
    (``site_domains``) nor the zone record is materialised here — both
    are lazy sections derived from exactly these tables
    (:attr:`World.site_domains`, :func:`dns_record_for`), so they can
    never drift from ``domains``."""
    world.domains.append(domain)


def dns_record_for(domain: Domain, site: Site) -> DnsRecord:
    """The zone record of one attached domain (pure function of the tables)."""
    return DnsRecord(
        a=site.ip,
        aaaa=site.ipv6 if domain.has_aaaa else None,
        cname="parking.example" if domain.parked else None,
        ns=("ns1.parkingcrew.example",) if domain.parked else (),
    )


def _populate_unresolved(world: World) -> None:
    config = world.config
    for j in range(config.quota(UNRESOLVED_CNO)):
        tld = ("com", "net", "org")[j % 3]
        world.domains.append(
            Domain(
                name=f"unresolved-{j:06d}.{tld}",
                site_index=-1,
                population="cno",
                lists=("cno",),
            )
        )
    for j in range(config.quota(UNRESOLVED_TOPLIST)):
        world.domains.append(
            Domain(
                name=f"top-unresolved-{j:05d}.com",
                site_index=-1,
                population="toplist",
                lists=("tranco",),
            )
        )


def _remark_group_ranks(providers: list[ProviderSpec]) -> dict[tuple[str, str], float]:
    """Stable cumulative rank of every re-marking group (for retention)."""
    remark_profiles = (
        "arelion-remark",
        "arelion-cogent-remark",
        "arelion-remark-lb-zero",
        "arelion-remark-zero-trace",
    )
    entries: list[tuple[int, str, str, float]] = []
    total = 0.0
    for provider in providers:
        for group in provider.groups:
            if group.path_profile in remark_profiles and group.quic_profile:
                order = stable_hash("remark-rank", provider.name, group.key)
                entries.append((order, provider.name, group.key, group.cno_domains))
                total += group.cno_domains
    entries.sort()
    ranks: dict[tuple[str, str], float] = {}
    cumulative = 0.0
    for _order, provider_name, group_key, domains in entries:
        ranks[(provider_name, group_key)] = cumulative / total if total else 0.0
        cumulative += domains
    return ranks


def _register_vantage_routes(
    world: World,
    vantage: VantageSpec,
    providers: list[ProviderSpec],
    ranks: dict[tuple[str, str], float],
    *,
    base: int = 0,
) -> None:
    """Build and register one vantage point's route section.

    ``base`` anchors the section's router-address counter (each vantage
    owns a disjoint :data:`~repro.web.paths.ADDR_BLOCK` range), so the
    addresses a section mints do not depend on which sections were
    materialised before it.
    """
    builder = RouteBuilder(start=base)
    for provider in providers:
        for group in provider.groups:
            rank = ranks.get((provider.name, group.key), 0.0)
            profile = effective_path_profile(vantage, group.path_profile, rank)
            route_key = f"{provider.name}/{group.key}"
            _register_route(world, builder, vantage, provider, profile, route_key)
            if group.ipv6_domains > 0:
                v6_profile = group.ipv6_path_profile or "clean-v6"
                v6_profile = effective_path_profile(vantage, v6_profile, rank)
                _register_route(
                    world, builder, vantage, provider, v6_profile, route_key + "/v6"
                )
    if builder.addresses_minted > ADDR_BLOCK:
        raise RuntimeError(
            f"route section for {vantage.vantage_id!r} minted "
            f"{builder.addresses_minted} router addresses, over the "
            f"{ADDR_BLOCK}-address section block — sections would collide; "
            "raise ADDR_BLOCK in repro.web.paths"
        )


def _register_route(
    world: World,
    builder: RouteBuilder,
    vantage: VantageSpec,
    provider: ProviderSpec,
    profile: str,
    route_key: str,
) -> None:
    for epoch_key, built in builder.build(vantage, profile, provider).items():
        start = None
        if epoch_key:
            year, week = epoch_key.split("-W")
            start = Week(int(year), int(week))
        world.network.register(vantage.vantage_id, route_key, built.transport, start=start)
        if built.trace is not None:
            world.network.register(
                vantage.vantage_id, route_key + "/trace", built.trace, start=start
            )
