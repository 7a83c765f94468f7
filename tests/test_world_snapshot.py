"""World snapshot codec + build cache + lazy sections.

The snapshot's contract is that rehydration is invisible: a world
decoded from a snapshot serves exactly the observations, site records,
traces, reports and shared-clock trajectory a freshly built world
produces.  The ``rehydrated`` legs of ``tests/differential.py`` hold
that line for every vantage, both IP families and TCP+QUIC (the week
matrix) and for the canonical campaign, serial and on pool workers
forked from a rehydrated parent.  This module holds the codec's
structural round trip, the zero-copy decode the ``--world-cache`` read
goes through, the full reports including the distributed run, the lazy
sections and the build cache.
"""

from __future__ import annotations

import hashlib
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.report import global_report, reference_report
from repro.pipeline.vantage import run_distributed
from repro.util.magics import WORLD_SNAPSHOT_MAGIC
from repro.web import snapshot
from repro.web.providers import (
    default_providers,
    default_vantage_overrides,
    default_vantages,
)
from repro.web.snapshot import SnapshotCorruption, decode_world, encode_world
from repro.web.spec import WorldConfig
from repro.web.world import DomainTable

from tests.conftest import requires_fork
from tests.differential import assert_legs_equal
from tests.differential import rehydrated as _rehydrate

#: Coarse world for the structural and cache tests.
MATRIX_SCALE = 40_000
#: Representative world for the deep campaign/analysis comparisons.
DEEP_SCALE = 12_000

SITE_FIELDS = ("index", "ip", "ipv6", "route_key", "position_in_group",
               "group_site_count", "asn", "org")

#: sha256 of ``encode_world`` at MATRIX_SCALE: a layout change must
#: re-pin it and bump the snapshot magic in ``repro.util.magics``.
MATRIX_SNAPSHOT_SHA256 = "96db920e55a2f13debf9bb4f602195a5cfcfb4250c285403f53763effbc21f6a"


def _build(scale):
    return repro.build_world(WorldConfig(scale=scale))


def _rehydrated(scale):
    """A world that went world -> buffer -> world."""
    return _rehydrate(_build(scale))


# ----------------------------------------------------------------------
# Structural round-trip
# ----------------------------------------------------------------------
def test_snapshot_round_trip_tables_identical():
    fresh = _build(MATRIX_SCALE)
    buf = snapshot.encode_world(fresh)
    rehydrated = snapshot.decode_world(buf)
    assert rehydrated.config == fresh.config
    # Every column keeps its type, and every row agrees field by field.
    for column in DomainTable.__slots__:
        exp, act = getattr(fresh.domains, column), getattr(rehydrated.domains, column)
        assert act == exp, column
        assert (type(act), getattr(act, "typecode", None)) == (
            type(exp), getattr(exp, "typecode", None)
        ), column
    assert list(rehydrated.domains) == list(fresh.domains)
    assert len(rehydrated.sites) == len(fresh.sites)
    for exp, act in zip(fresh.sites, rehydrated.sites, strict=True):
        for name in SITE_FIELDS:
            assert getattr(exp, name) == getattr(act, name), name
        assert act.provider.name == exp.provider.name
        assert act.group.key == exp.group.key
    assert rehydrated.asorg.entries() == fresh.asorg.entries()
    assert rehydrated.asorg.merges() == fresh.asorg.merges()
    assert sorted(rehydrated.prefixes.items()) == sorted(fresh.prefixes.items())
    # DNS derives identically on both sides.
    for domain in fresh.domains[:500]:
        assert rehydrated.resolver.resolve(domain.name) == fresh.resolver.resolve(
            domain.name
        )


def test_snapshot_bytes_are_pinned():
    buf = snapshot.encode_world(_build(MATRIX_SCALE))
    assert buf.startswith(WORLD_SNAPSHOT_MAGIC)
    assert hashlib.sha256(buf).hexdigest() == MATRIX_SNAPSHOT_SHA256


def test_snapshot_reencode_is_byte_stable():
    buf = snapshot.encode_world(_build(MATRIX_SCALE))
    assert snapshot.encode_world(snapshot.decode_world(buf)) == buf


def test_snapshot_round_trips_single_site_world_without_ipv6():
    """Regression: one v4-only site joins to an empty ipv6 blob, which
    must decode back to one empty row — not to zero rows."""
    from repro.tcp.profiles import TcpProfile
    from repro.web.spec import HostGroupSpec, ProviderSpec, VantageSpec

    providers = [
        ProviderSpec(
            name="Tiny",
            asn=64500,
            groups=(
                HostGroupSpec(
                    key="only",
                    cno_domains=1.0,
                    ips=1.0,
                    quic_profile=None,
                    tcp_profile=TcpProfile.FULL,
                ),
            ),
        )
    ]
    vantages = [
        VantageSpec(
            vantage_id="main-aachen", operator="main", city="Aachen",
            lat=50.8, lon=6.1, source_ip="192.0.2.1",
        )
    ]
    # A huge scale quotas every class (including the default unresolved
    # populations) down to at most one domain.
    fresh = repro.build_world(
        WorldConfig(scale=10**8), providers=providers, vantages=vantages, overrides=[]
    )
    assert len(fresh.sites) == 1 and fresh.sites[0].ipv6 is None
    buf = snapshot.encode_world(fresh)
    rehydrated = snapshot.decode_world(
        buf, providers=providers, vantages=vantages, overrides=[]
    )
    assert list(rehydrated.domains) == list(fresh.domains)
    assert rehydrated.sites[0].ipv6 is None
    assert snapshot.encode_world(rehydrated) == buf


def test_snapshot_rejects_garbage_and_mismatched_specs():
    with pytest.raises(snapshot.SnapshotError):
        snapshot.decode_world(b"not a snapshot at all")
    world = _build(MATRIX_SCALE)
    buf = snapshot.encode_world(world)
    with pytest.raises(snapshot.SnapshotMismatch):
        snapshot.decode_world(buf, providers=default_providers()[:-1])
    assert snapshot.snapshot_fingerprint(buf) == snapshot.world_fingerprint(
        world.config,
        default_providers(),
        default_vantages(),
        default_vantage_overrides(),
    )


# ----------------------------------------------------------------------
# Zero-copy world decode
# ----------------------------------------------------------------------
@settings(max_examples=6, deadline=None)
@given(scale=st.integers(30_000, 400_000), seed=st.integers(0, 2**31 - 1))
def test_zero_copy_decode_matches_bytes_decode(scale, seed):
    """decode_world over a borrowed buffer == decode_world over bytes,
    and the borrowed buffer is never written."""
    world = repro.build_world(WorldConfig(scale=scale, seed=seed))
    encoded = encode_world(world)
    mutable = bytearray(encoded)
    via_view = decode_world(memoryview(mutable))
    via_bytes = decode_world(bytes(encoded))
    assert encode_world(via_view) == encode_world(via_bytes) == encoded
    assert mutable == encoded


def test_zero_copy_decode_still_validates_crc():
    encoded = bytearray(encode_world(_build(400_000)))
    encoded[len(encoded) // 2] ^= 0x04
    with pytest.raises(SnapshotCorruption):
        decode_world(memoryview(encoded))


# ----------------------------------------------------------------------
# Golden equivalence through the pipeline
# ----------------------------------------------------------------------
def test_rehydrated_matches_fresh_for_every_vantage_and_family(week_matrix):
    """All vantages x v4+TCP/v4 with tracebox/v6, on one rehydrated world."""
    assert_legs_equal(week_matrix.oracle, week_matrix["rehydrated"])


def test_rehydrated_serial_campaign_and_analysis_identical(campaign_legs):
    """The canonical campaign and its report on a rehydrated world."""
    assert_legs_equal(campaign_legs.oracle, campaign_legs["rehydrated"])


@requires_fork
@pytest.mark.parametrize(
    "workers,path",
    [(1, "inline"), (2, "inline"), (4, "inline"), (2, "process"), (4, "process")],
)
def test_rehydrated_campaign_and_analysis_identical(campaign_legs, workers, path):
    """Pool campaigns + longitudinal analysis from a rehydrated parent
    world, workers 1/2/4, with the tickets computed in worker processes
    or inline in the parent (which then scans the rehydrated world
    itself)."""
    pooled = campaign_legs.pool(workers, path=path, rehydrate=True)
    assert_legs_equal(campaign_legs.oracle, pooled)


def test_rehydrated_full_reports_identical():
    """Reference scan + tracebox + IPv6 + TCP week + distributed run."""
    fresh = _build(DEEP_SCALE)
    rehydrated = _rehydrated(DEEP_SCALE)
    reports = []
    for world in (fresh, rehydrated):
        ref = repro.run_weekly_scan(
            world, world.config.reference_week, plugins=("ecn", "trace")
        )
        v6 = repro.run_weekly_scan(
            world, world.config.ipv6_week, ip_version=6, populations=("cno",)
        )
        dist = run_distributed(
            world,
            main_run=ref,
            vantage_ids=["main-aachen", "aws-frankfurt", "vultr-tokyo"],
        )
        reports.append(
            reference_report(ref, v6) + "\n" + global_report(world, dist)
        )
    assert reports[0] == reports[1]
    assert fresh.clock.now == rehydrated.clock.now


# ----------------------------------------------------------------------
# Lazy sections
# ----------------------------------------------------------------------
def test_world_sections_stay_lazy_until_touched():
    world = _build(MATRIX_SCALE)
    state = world.section_state()
    assert state["attribution_stale"]
    assert state["dns_records_stored"] == 0
    assert set(state["pending_route_sections"]) == set(world.vantages)

    # A single-vantage scan materialises only that vantage's routes.
    repro.run_weekly_scan(world, world.config.reference_week)
    state = world.section_state()
    assert not state["attribution_stale"]
    assert "main-aachen" not in state["pending_route_sections"]
    assert len(state["pending_route_sections"]) == len(world.vantages) - 1
    # DNS answers are derived per call: neither the plan (which reads
    # the domain/site tables) nor a direct lookup stores a record.
    assert state["dns_records_stored"] == 0
    attached = next(d for d in world.domains if d.site_index >= 0)
    assert world.resolver.resolve(attached.name) is not None
    assert world.section_state()["dns_records_stored"] == 0

    # Touching a route from another vantage materialises its section.
    site = world.sites[0]
    template = world.network.template_for(
        "aws-frankfurt", site.route_key, world.config.reference_week
    )
    assert template.variants
    assert "aws-frankfurt" not in world.section_state()["pending_route_sections"]


def test_lazy_routes_identical_regardless_of_touch_order():
    """Router addresses are a pure function of the section."""
    week = WorldConfig().reference_week
    a, b = _build(MATRIX_SCALE), _build(MATRIX_SCALE)
    a_order = sorted(a.vantages)
    for vantage_id in a_order:
        a.ensure_routes(vantage_id)
    for vantage_id in reversed(a_order):
        b.ensure_routes(vantage_id)
    for vantage_id in a_order:
        for site in a.sites[:40]:
            t_a = a.network.template_for(vantage_id, site.route_key, week)
            t_b = b.network.template_for(vantage_id, site.route_key, week)
            assert [
                [(r.name, r.asn, r.address, r.ecn_action) for r in path.hops]
                for path in t_a.variants
            ] == [
                [(r.name, r.asn, r.address, r.ecn_action) for r in path.hops]
                for path in t_b.variants
            ]


def test_all_sections_mint_valid_disjoint_router_addresses():
    """Regression: a section base past 0xFFFF used to overflow the v6
    hex group (``2001:db8:ffff::10004``); every minted address must
    parse, and no two vantage sections may share one."""
    import ipaddress

    world = _build(MATRIX_SCALE)
    world.ensure_all_routes()
    per_vantage: dict[str, set[str]] = {}
    for (vantage_id, _key), entry in world.network._routes.items():
        for _start, template in entry.epochs:
            for path in template.variants:
                for hop in path.hops:
                    ipaddress.ip_address(hop.address)  # raises if invalid
                    per_vantage.setdefault(vantage_id, set()).add(hop.address)
    vantage_ids = sorted(per_vantage)
    for i, a in enumerate(vantage_ids):
        for b in vantage_ids[i + 1 :]:
            assert not (per_vantage[a] & per_vantage[b]), (a, b)


def test_explicit_resolver_records_win_over_lazy_derivation():
    world = _build(MATRIX_SCALE)
    from repro.dns.resolver import DnsRecord

    victim = next(d for d in world.domains if d.site_index >= 0)
    world.resolver.add(victim.name, DnsRecord(a="198.51.100.7"))
    assert world.resolver.resolve_address(victim.name) == "198.51.100.7"
    # Unresolved domains still resolve to nothing.
    unresolved = next(d for d in world.domains if d.site_index < 0)
    assert world.resolver.resolve(unresolved.name) is None


# ----------------------------------------------------------------------
# Build cache
# ----------------------------------------------------------------------
def test_acquire_world_memory_and_disk_layers(tmp_path):
    config = WorldConfig(scale=MATRIX_SCALE)
    first, source = snapshot.acquire_world(config, cache_dir=tmp_path)
    assert source == "cold"
    second, source = snapshot.acquire_world(config, cache_dir=tmp_path)
    assert source == "disk"
    assert second is not first  # independent instances
    assert list(second.domains) == list(first.domains)
    third, source = snapshot.acquire_world(config, cache_dir=tmp_path)
    assert source == "disk"
    assert third is not second
    assert list(third.domains) == list(first.domains)


def test_acquire_world_rebuilds_on_corrupt_cache_file(tmp_path):
    config = WorldConfig(scale=MATRIX_SCALE)
    snapshot.acquire_world(config, cache_dir=tmp_path)
    path = snapshot.cache_path(
        tmp_path,
        snapshot.world_fingerprint(
            config,
            default_providers(),
            default_vantages(),
            default_vantage_overrides(),
        ),
    )
    assert path.exists()
    path.write_bytes(b"ECNWRLD1 corrupted beyond recognition")
    world, source = snapshot.acquire_world(config, cache_dir=tmp_path)
    assert source == "cold"  # rebuilt, not crashed
    assert world.sites
    assert snapshot.snapshot_fingerprint(path.read_bytes())  # rewritten


def test_acquire_world_keys_on_config(tmp_path):
    _, source_a = snapshot.acquire_world(WorldConfig(scale=MATRIX_SCALE), cache_dir=tmp_path)
    _, source_b = snapshot.acquire_world(
        WorldConfig(scale=MATRIX_SCALE, seed=7), cache_dir=tmp_path
    )
    assert source_a == source_b == "cold"  # different fingerprints
    _, source_c = snapshot.acquire_world(
        WorldConfig(scale=MATRIX_SCALE, seed=7), cache_dir=tmp_path
    )
    assert source_c == "disk"
    assert len(list(tmp_path.glob("world-*.ecnw"))) == 2


# ----------------------------------------------------------------------
# WorldConfig.quota edge cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scale", [math.nan, math.inf, 0.5, 0, -1])
def test_config_rejects_scale_that_is_not_finite_and_at_least_one(scale):
    """NaN used to pass and fail later in ``quota``, inf built a world of
    min-one quotas, and a scale below 1 builds more domains than the
    paper counts (1e-9 never finished)."""
    with pytest.raises(ValueError, match=re.escape(f"finite number >= 1, got {scale!r}")):
        WorldConfig(scale=scale)


def test_quota_scale_one_is_identity_rounding():
    config = WorldConfig(scale=1)
    assert config.quota(17) == 17
    assert config.quota(0) == 0
    assert config.quota(2.5) == 2  # banker's rounding, like round()
    assert config.quota(0.4) == 1  # min_one floor
    assert config.quota(0.4, min_one=False) == 0


def test_quota_fractional_paper_counts():
    config = WorldConfig(scale=1000)
    assert config.quota(499.9) == 1  # rounds to 0, floored to 1
    assert config.quota(499.9, min_one=False) == 0
    assert config.quota(1500.0, min_one=False) == 2
    assert config.quota(-5) == 0  # non-positive classes stay empty
    assert config.quota(-5, min_one=False) == 0


# ----------------------------------------------------------------------
# Property: snapshot stability over generated configs
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    scale=st.one_of(
        st.integers(min_value=30_000, max_value=400_000),
        st.floats(min_value=30_000, max_value=400_000,
                  allow_nan=False, allow_infinity=False),
    ),
    seed=st.integers(min_value=0, max_value=2**48),
)
def test_snapshot_round_trip_stable_under_generated_configs(scale, seed):
    """encode(decode(buf)) == buf and tables survive, for any config.

    Coarse scales keep the generated worlds tiny; the property is about
    the codec, not the world size.
    """
    config = WorldConfig(scale=scale, seed=seed)
    fresh = repro.build_world(config)
    buf = snapshot.encode_world(fresh)
    rehydrated = snapshot.decode_world(buf)
    assert rehydrated.config == config
    assert list(rehydrated.domains) == list(fresh.domains)
    assert len(rehydrated.sites) == len(fresh.sites)
    assert snapshot.encode_world(rehydrated) == buf
