"""AS database (prefix trie + as2org), DNS lookups, HTTP messages."""

from hypothesis import given, strategies as st

from repro.asdb.as2org import AsOrgMap
from repro.asdb.prefixtree import PrefixTree
from repro.dns.records import DnsRecord
from repro.http.messages import HttpRequest, HttpResponse


# ----------------------------------------------------------------------
# Prefix trie
# ----------------------------------------------------------------------
def test_longest_prefix_match_wins():
    tree = PrefixTree()
    tree.insert("100.64.0.0/10", 1)
    tree.insert("100.65.0.0/16", 2)
    tree.insert("100.65.7.0/24", 3)
    assert tree.lookup("100.64.1.1") == 1
    assert tree.lookup("100.65.1.1") == 2
    assert tree.lookup("100.65.7.9") == 3


def test_lookup_without_covering_prefix_is_none():
    tree = PrefixTree()
    tree.insert("10.0.0.0/8", 42)
    assert tree.lookup("192.0.2.1") is None


def test_ipv6_prefixes_are_separate():
    tree = PrefixTree()
    tree.insert("2001:db8::/32", 7)
    assert tree.lookup("2001:db8::1") == 7
    assert tree.lookup("10.0.0.1") is None


def test_reinsert_overwrites():
    tree = PrefixTree()
    tree.insert("10.0.0.0/8", 1)
    tree.insert("10.0.0.0/8", 2)
    assert tree.lookup("10.1.2.3") == 2
    assert len(tree) == 1


def test_items_roundtrip():
    tree = PrefixTree()
    entries = {"10.0.0.0/8": 1, "100.64.0.0/16": 2, "2001:db8:1::/48": 3}
    for prefix, asn in entries.items():
        tree.insert(prefix, asn)
    assert dict(tree.items()) == entries


@given(st.lists(st.tuples(st.integers(0, 255), st.integers(8, 24)), max_size=10))
def test_inserted_network_address_always_matches(specs):
    tree = PrefixTree()
    for index, (octet, plen) in enumerate(specs):
        tree.insert(f"{max(1, octet)}.0.0.0/{plen}", index)
    for index, (octet, plen) in enumerate(specs):
        assert tree.lookup(f"{max(1, octet)}.0.0.1") is not None


# ----------------------------------------------------------------------
# as2org
# ----------------------------------------------------------------------
def test_org_mapping_and_merge():
    orgs = AsOrgMap()
    orgs.add(13335, "Cloudflare")
    orgs.add(209242, "Cloudflare London")
    orgs.merge("Cloudflare London", "Cloudflare")
    assert orgs.org_for(13335) == "Cloudflare"
    assert orgs.org_for(209242) == "Cloudflare"
    assert orgs.asns_for("Cloudflare") == [13335, 209242]


def test_unknown_asn_maps_to_unknown():
    orgs = AsOrgMap()
    assert orgs.org_for(999) == AsOrgMap.UNKNOWN
    assert orgs.org_for(None) == AsOrgMap.UNKNOWN


def test_merge_cycles_do_not_hang():
    orgs = AsOrgMap()
    orgs.add(1, "A")
    orgs.merge("A", "B")
    orgs.merge("B", "A")
    assert orgs.org_for(1) in ("A", "B")


# ----------------------------------------------------------------------
# DNS
# ----------------------------------------------------------------------
def test_resolution_families(small_world):
    """A is the site's ``ip``; AAAA its ``ipv6`` only for a domain that
    ``has_aaaa``."""
    dual = next(
        d
        for d in small_world.domains
        if d.has_aaaa and d.site_index >= 0 and small_world.sites[d.site_index].ipv6
    )
    site = small_world.sites[dual.site_index]
    assert small_world.resolve_address(dual.name, family=4) == site.ip
    assert small_world.resolve_address(dual.name, family=6) == site.ipv6
    v4_only = next(d for d in small_world.domains if not d.has_aaaa and d.site_index >= 0)
    assert small_world.resolve_address(v4_only.name, family=4) is not None
    assert small_world.resolve_address(v4_only.name, family=6) is None


def test_missing_domain_resolves_none(small_world):
    assert small_world.resolve("missing.example") is None
    assert small_world.resolve_address("missing.example") is None
    # A domain of the table without a site resolves to nothing too.
    unresolved = next(d for d in small_world.domains if d.site_index < 0)
    assert small_world.resolve(unresolved.name) is None
    assert small_world.resolve_address(unresolved.name, family=6) is None


def test_parked_domain_records():
    record = DnsRecord(a="203.0.113.5", ns=("ns1.parkingcrew.example",))
    assert record.resolvable
    assert record.ns


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
def test_server_product_strips_version():
    response = HttpResponse(headers=(("server", "LiteSpeed/6.0"),))
    assert response.server_product == "LiteSpeed"


def test_header_lookup_is_case_insensitive():
    response = HttpResponse(headers=(("Alt-Svc", 'h3=":443"'),))
    assert response.alt_svc == 'h3=":443"'


def test_redirect_detection():
    assert HttpResponse(status=301, headers=(("location", "/x"),)).is_redirect
    assert not HttpResponse(status=200).is_redirect


def test_request_carries_research_hint():
    request = HttpRequest(authority="www.example.com")
    assert request.header("x-research") is not None


def test_via_header_for_proxies():
    response = HttpResponse(headers=(("via", "1.1 google"),))
    assert response.via == "1.1 google"
