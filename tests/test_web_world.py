"""World builder invariants."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.web.providers import default_providers, default_vantages
from repro.web.spec import WorldConfig
from repro.web.world import ADOPTION_FULL_WEEK, ADOPTION_START_SHARE, Domain, DomainTable


def test_every_domain_with_site_is_resolvable(small_world):
    for domain in small_world.domains[:2000]:
        record = small_world.resolver.resolve(domain.name)
        if domain.site_index >= 0:
            assert record is not None and record.a is not None
        else:
            assert record is None


def test_sites_by_ip_lookup(small_world):
    for site in small_world.sites[:200]:
        assert small_world.site_by_ip(site.ip) is site


def test_ip_to_asn_to_org_chain(small_world):
    for site in small_world.sites[:200]:
        asn = small_world.prefixes.lookup(site.ip)
        assert asn == site.provider.asn
        assert small_world.asorg.org_for(asn) == site.provider.name


def test_sibling_orgs_merge(small_world):
    assert small_world.asorg.org_for(209242) == "Cloudflare"
    assert small_world.asorg.org_for(396982) == "Google"


@pytest.mark.parametrize(
    "population,lists,message",
    [
        ("alexa", ("alexa",), "unknown population 'alexa'"),
        ("cno", ("cno", "tranco"), "unsupported list membership"),
        ("toplist", ("dmoz",), "unsupported list membership"),
        ("toplist", (), "unsupported list membership"),
    ],
)
def test_domain_table_rejects_rows_it_cannot_encode(population, lists, message):
    table = DomainTable()
    table.append("ok.com", 0, "cno", ("cno",))
    with pytest.raises(ValueError, match=message):
        table.append("bad.com", 0, population, lists)
    assert table.names == ["ok.com"] and len(table.flags) == len(table.ranks) == 1


def test_domain_table_rows_round_trip_and_are_frozen():
    table = DomainTable()
    rows = [
        Domain("a.com", 3, "cno", ("cno",), parked=True, has_aaaa=True, adoption_rank=0.25),
        Domain("b.com", -1, "toplist", ("alexa", "tranco"), adoption_rank=0.5),
        Domain("c.com", 0, "toplist", ("umbrella", "majestic")),
    ]
    for row in rows:
        table.append(
            row.name,
            row.site_index,
            row.population,
            row.lists,
            parked=row.parked,
            has_aaaa=row.has_aaaa,
            adoption_rank=row.adoption_rank,
        )
    assert len(table) == 3
    assert list(table) == rows
    assert table[-1] == rows[-1] and table[1:] == rows[1:]
    with pytest.raises(IndexError):
        table[3]
    with pytest.raises(dataclasses.FrozenInstanceError):
        table[0].parked = False


def test_domains_never_exceed_sites_quota(small_world):
    for site in small_world.sites:
        assert site.group_site_count >= 1


def test_adoption_ramp_monotonic(small_world):
    config = small_world.config
    previous = 0.0
    week = config.start_week
    while week <= ADOPTION_FULL_WEEK:
        share = small_world.adoption_share(week)
        assert share >= previous
        assert ADOPTION_START_SHARE <= share <= 1.0
        previous = share
        week = week + 4
    assert small_world.adoption_share(ADOPTION_FULL_WEEK) == 1.0


def test_site_policy_default_matches_group(small_world):
    site = small_world.sites[0]
    policy = small_world.site_policy(site, "main-aachen")
    assert policy.quic_profile == site.group.quic_profile
    assert policy.tcp_profile is site.group.tcp_profile


def test_wix_override_unreachable_from_us_west(small_world):
    wix_sites = [
        s for s in small_world.sites
        if s.provider.name == "Google" and s.group.key == "wix-nomirror"
    ]
    assert wix_sites
    site = wix_sites[0]
    assert small_world.site_policy(site, "main-aachen").reachable
    assert not small_world.site_policy(site, "vultr-honolulu").reachable
    assert not small_world.site_policy(site, "vultr-sanfrancisco").reachable


def test_india_override_changes_stack(small_world):
    sites = [
        s for s in small_world.sites
        if s.provider.name == "Google" and s.group.key == "own"
    ]
    profiles = {small_world.site_policy(s, "aws-mumbai").quic_profile for s in sites}
    assert "google-india-undercount" in profiles


def test_quic_server_construction(small_world):
    week = small_world.config.reference_week
    cloudflare = next(
        s for s in small_world.sites
        if s.provider.name == "Cloudflare" and s.group.key == "cdn"
    )
    server = small_world.quic_server(cloudflare, week, "main-aachen")
    assert server is not None
    assert server.behavior.server_header == "cloudflare"


def test_tcp_server_for_dark_site_is_none(small_world):
    week = small_world.config.reference_week
    dark = next(s for s in small_world.sites if s.provider.name == "DarkWeb")
    assert small_world.tcp_server(dark, week, "main-aachen") is None
    assert small_world.quic_server(dark, week, "main-aachen") is None


def test_routes_registered_for_all_sites_and_vantages(small_world):
    week = small_world.config.reference_week
    for vantage_id in list(small_world.vantages)[:3]:
        for site in small_world.sites[:100]:
            template = small_world.network.template_for(vantage_id, site.route_key, week)
            assert template.variants


def test_quota_scaling_and_min_one():
    config = WorldConfig(scale=1000)
    assert config.quota(17_300_000) == 17_300
    assert config.quota(4) == 1  # tiny classes survive
    assert config.quota(4, min_one=False) == 0
    assert config.quota(0) == 0


def test_world_scales_inversely():
    coarse = repro.build_world(WorldConfig(scale=40_000))
    fine = repro.build_world(WorldConfig(scale=10_000))
    assert len(fine.domains) > 2 * len(coarse.domains)


def test_parked_domains_have_parking_ns(small_world):
    parked = [d for d in small_world.domains if d.parked]
    assert parked
    record = small_world.resolver.resolve(parked[0].name)
    assert record.ns


def test_toplist_domains_have_membership(small_world):
    toplist = [d for d in small_world.domains if d.population == "toplist"]
    assert toplist
    assert all(d.lists for d in toplist)


def test_provider_spec_group_lookup():
    provider = default_providers()[0]
    assert provider.group(provider.groups[0].key) is provider.groups[0]
    with pytest.raises(KeyError):
        provider.group("missing")


def test_vantage_markers():
    markers = {v.marker for v in default_vantages()}
    assert markers == {"M", "A", "V"}


#: The domain table's flag and mask encoding.
_ENCODING_NAMES = {"TOPLIST_FLAG", "PARKED_FLAG", "AAAA_FLAG", "MASK_LISTS", "POPULATIONS"}


def test_only_the_world_knows_the_domain_encoding():
    """Every reader of the domain table goes through its row decoders:
    no module of the package but ``web/world.py`` names the flag or mask
    encoding."""
    package = Path(repro.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "web" / "world.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            if name in _ENCODING_NAMES:
                offenders.append(f"{path.relative_to(package)}:{node.lineno}: {name}")
    assert not offenders, offenders
