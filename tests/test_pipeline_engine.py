"""Site-first scan engine: golden equivalence against the reference loop.

The engine must reproduce the per-domain reference scan *byte for byte*
— same observations, same site records, same traces, same per-site
RNG substreams and world-clock trajectory — while doing per-site
instead of per-domain work.
Two identically-seeded worlds are built and driven in lockstep: one by
the reference loop, one by the engine.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.core.codepoints import ECN
from repro.netsim.network import PathTemplate
from repro.netsim.path import NetworkPath
from repro.pipeline.engine import QUIC_EVENT, TCP_EVENT, ScanEngine, ScanPhaseStats
from repro.pipeline.runs import run_weekly_scan_reference
from repro.plugins.base import PLUGIN_KIND_BASE
from repro.scanner.quic_scan import QuicScanConfig
from repro.scanner.results import DomainObservation
from repro.store.columns import NO_ROW, ObservationStore
from repro.store.views import StoreObservations
from repro.web.spec import WorldConfig

from tests.conftest import point_first_domain_at_last_site

GOLDEN_SCALE = 20_000

OBSERVATION_FIELDS = [f.name for f in dataclasses.fields(DomainObservation)]


def _world_pair():
    config = WorldConfig(scale=GOLDEN_SCALE)
    return repro.build_world(config), repro.build_world(config)


def _assert_runs_equal(reference, engine_run):
    assert len(reference.observations) == len(engine_run.observations)
    for ref_obs, eng_obs in zip(reference.observations, engine_run.observations, strict=True):
        for name in OBSERVATION_FIELDS:
            assert getattr(ref_obs, name) == getattr(eng_obs, name), (
                f"{ref_obs.domain}: field {name!r} diverged"
            )
    assert reference.site_records.keys() == engine_run.site_records.keys()
    for index, ref_record in reference.site_records.items():
        eng_record = engine_run.site_records[index]
        assert ref_record.ip == eng_record.ip
        assert ref_record.quic == eng_record.quic
        assert ref_record.tcp == eng_record.tcp
    assert reference.traces == engine_run.traces


def test_engine_matches_reference_v4_with_tracebox():
    world_ref, world_eng = _world_pair()
    week = world_ref.config.reference_week
    reference = run_weekly_scan_reference(world_ref, week, run_tracebox=True)
    engine_run = repro.run_weekly_scan(world_eng, week, plugins=("ecn", "trace"))
    _assert_runs_equal(reference, engine_run)
    # The world clock advanced identically: the engine summed the same
    # exchanges' elapsed times in the same order.
    assert world_ref.clock.now == world_eng.clock.now


def test_engine_matches_reference_v6():
    world_ref, world_eng = _world_pair()
    week = world_ref.config.ipv6_week
    reference = run_weekly_scan_reference(
        world_ref, week, ip_version=6, populations=("cno",)
    )
    engine_run = repro.run_weekly_scan(
        world_eng, week, ip_version=6, populations=("cno",)
    )
    _assert_runs_equal(reference, engine_run)
    assert world_ref.clock.now == world_eng.clock.now


def test_engine_matches_reference_include_tcp():
    world_ref, world_eng = _world_pair()
    week = world_ref.config.tcp_week
    config = QuicScanConfig(probe_codepoint=ECN.CE)
    reference = run_weekly_scan_reference(
        world_ref, week, populations=("cno",), include_tcp=True, quic_config=config
    )
    engine_run = repro.run_weekly_scan(
        world_eng, week, populations=("cno",), include_tcp=True, quic_config=config
    )
    _assert_runs_equal(reference, engine_run)
    assert world_ref.clock.now == world_eng.clock.now


def test_engine_matches_reference_with_cross_site_resolver_override():
    """A resolver mutated post-build (domain pointed at another site's
    IP) groups the domain under the site that owns its new address."""
    world_ref, world_eng = _world_pair()
    point_first_domain_at_last_site(world_ref)
    point_first_domain_at_last_site(world_eng)
    week = world_ref.config.reference_week
    reference = run_weekly_scan_reference(world_ref, week, run_tracebox=True)
    engine_run = repro.run_weekly_scan(world_eng, week, plugins=("ecn", "trace"))
    _assert_runs_equal(reference, engine_run)
    assert world_ref.clock.now == world_eng.clock.now


def _with_lossy_route(world, week):
    """Re-register one scanned site's route with a randomly dropping hop.

    The calibrated world builds only draw-free paths; this one can draw,
    so its exchanges are uncacheable and consult their RNG substreams.
    """
    site_index = world.scan_engine().site_events(week)[0].site_index
    route_key = world.sites[site_index].route_key
    template = world.network.template_for("main-aachen", route_key, week)
    variants = [
        NetworkPath(
            hops=[dataclasses.replace(path.hops[0], drop_probability=0.3), *path.hops[1:]],
            base_loss=path.base_loss,
        )
        for path in template.variants
    ]
    world.network.register(
        "main-aachen",
        route_key,
        PathTemplate(template.name, variants, template.weights),
        start=week,
    )


def test_engine_matches_reference_on_a_lossy_route(monkeypatch):
    """Exchanges that draw randomness agree with the reference loop too."""
    world_ref, world_eng = _world_pair()
    week = world_ref.config.tcp_week
    _with_lossy_route(world_ref, week)
    _with_lossy_route(world_eng, week)
    streams = []
    original = ScanEngine.event_stream

    def counting(self, *args):
        streams.append(args[0])
        return original(self, *args)

    monkeypatch.setattr(ScanEngine, "event_stream", counting)
    reference = run_weekly_scan_reference(
        world_ref, week, populations=("cno",), include_tcp=True
    )
    stats = ScanPhaseStats()
    engine_run = repro.run_weekly_scan(
        world_eng, week, populations=("cno",), include_tcp=True, phase_stats=stats
    )
    # Substreams are built only for exchanges that can draw, and those
    # are all uncacheable.
    assert 0 < len(streams) <= stats.exchange_cache_uncacheable
    _assert_runs_equal(reference, engine_run)
    assert world_ref.clock.now == world_eng.clock.now


def test_draw_free_world_never_builds_a_substream(monkeypatch):
    """Every calibrated path is draw-free, so no exchange — fresh or
    replayed, core or plugin variant — needs its RNG substream."""

    def forbidden(*args, **kwargs):  # pragma: no cover - only on regression
        raise AssertionError("a draw-free exchange built an RNG substream")

    monkeypatch.setattr(ScanEngine, "event_stream", forbidden)
    world = repro.build_world(WorldConfig(scale=GOLDEN_SCALE))
    week = world.config.reference_week
    for engine in (ScanEngine(world, exchange_cache=False), world.scan_engine()):
        run = engine.run_week(week, include_tcp=True, plugins=("ecn", "grease"))
        assert run.site_records


def test_engine_matches_reference_across_consecutive_runs():
    """RNG state stays in lockstep run-over-run (campaign semantics)."""
    world_ref, world_eng = _world_pair()
    weeks = [world_ref.config.start_week, world_ref.config.reference_week]
    for week in weeks:
        reference = run_weekly_scan_reference(world_ref, week, populations=("cno",))
        engine_run = repro.run_weekly_scan(world_eng, week, populations=("cno",))
        _assert_runs_equal(reference, engine_run)


# ----------------------------------------------------------------------
# Hot-loop guarantees
# ----------------------------------------------------------------------
def test_hot_loop_never_parses_ips_and_resolves_policy_once(monkeypatch):
    """After plan warm-up, a run does zero IP parsing / trie walks and at
    most one policy evaluation per (site, vantage) — the perf contract."""
    world = repro.build_world(WorldConfig(scale=GOLDEN_SCALE))
    engine = world.scan_engine()
    engine.plan_for(4, ("cno", "toplist"))

    def forbidden(*args, **kwargs):  # pragma: no cover - only on regression
        raise AssertionError("hot loop must not parse IP addresses")

    from repro.asdb import prefixtree

    monkeypatch.setattr(prefixtree.PrefixTree, "lookup", forbidden)
    monkeypatch.setattr(prefixtree.PrefixTree, "lookup_int", forbidden)
    monkeypatch.setattr(prefixtree, "parse_address", forbidden)

    compute_calls: list[tuple[int, str]] = []
    original_compute = type(world)._compute_site_policy

    def counting_compute(self, site, vantage_id):
        compute_calls.append((site.index, vantage_id))
        return original_compute(self, site, vantage_id)

    monkeypatch.setattr(type(world), "_compute_site_policy", counting_compute)

    run = engine.run_week(world.config.reference_week, plugins=("ecn", "trace"))
    assert run.observations
    assert len(compute_calls) <= len(world.sites)
    assert len(compute_calls) == len(set(compute_calls))  # once per (site, vantage)

    # A second run re-evaluates nothing: the memo holds.
    compute_calls.clear()
    engine.run_week(world.config.reference_week)
    assert not compute_calls


def test_campaign_week_work_is_its_events(monkeypatch):
    """QUIC capability is decided once per planned site and vantage, and
    a week's store writes are its core events — no week walks every
    planned site."""
    world = repro.build_world(WorldConfig(scale=GOLDEN_SCALE))
    scheduling: list[bool] = []
    schedule_policies: list[tuple[int, str]] = []
    core_events: list[int] = []
    store_writes: list[int] = []
    original_policy = world.site_policy
    original_schedule = ScanEngine._schedule
    original_apply = ScanEngine._apply_replay
    original_record = ObservationStore.record_site

    def counting_policy(site, vantage_id):
        if scheduling:
            schedule_policies.append((site.index, vantage_id))
        return original_policy(site, vantage_id)

    def tracked_schedule(self, *args, **kwargs):
        scheduling.append(True)
        try:
            return original_schedule(self, *args, **kwargs)
        finally:
            scheduling.pop()

    def counting_apply(self, events, *args, **kwargs):
        core_events.append(sum(event.kind < PLUGIN_KIND_BASE for event in events))
        return original_apply(self, events, *args, **kwargs)

    def counting_record(self, segment_index, **results):
        store_writes.append(segment_index)
        return original_record(self, segment_index, **results)

    monkeypatch.setattr(world, "site_policy", counting_policy)
    monkeypatch.setattr(ScanEngine, "_schedule", tracked_schedule)
    monkeypatch.setattr(ScanEngine, "_apply_replay", counting_apply)
    monkeypatch.setattr(ObservationStore, "record_site", counting_record)

    campaign = repro.run_campaign(world, cadence_weeks=1)
    weeks = len(campaign.runs)
    assert weeks > 40
    segments = world.scan_engine().plan_for(4, ("cno",)).columns.segments
    planned = {(segment.site_index, "main-aachen") for segment in segments}
    assert len(schedule_policies) == len(set(schedule_policies))
    assert set(schedule_policies) == planned
    assert len(core_events) == weeks
    assert len(store_writes) == sum(core_events)
    assert len(store_writes) < len(segments) * weeks


def test_site_events_ordered_and_deduplicated():
    world = repro.build_world(WorldConfig(scale=GOLDEN_SCALE))
    engine = world.scan_engine()
    week = world.config.reference_week
    events = engine.site_events(week, include_tcp=True)
    positions = [(event.position, event.kind) for event in events]
    assert positions == sorted(positions)  # reference trigger order
    assert len({(e.site_index, e.kind) for e in events}) == len(events)
    quic_sites = {e.site_index for e in events if e.kind == QUIC_EVENT}
    tcp_sites = {e.site_index for e in events if e.kind == TCP_EVENT}
    assert quic_sites <= tcp_sites  # every scanned site has a TCP event
    for event in events:
        if event.kind == QUIC_EVENT:
            policy = world.site_policy(world.sites[event.site_index], "main-aachen")
            assert policy.reachable and policy.quic_profile is not None


def test_site_events_far_fewer_than_domains():
    """The engine's point: weekly work is O(sites), not O(domains)."""
    world = repro.build_world(WorldConfig(scale=GOLDEN_SCALE))
    events = world.scan_engine().site_events(world.config.reference_week)
    assert len(events) <= len(world.sites)
    assert len(events) * 10 < len(world.domains)


def test_world_site_attribution_materialised():
    world = repro.build_world(WorldConfig(scale=GOLDEN_SCALE))
    # Attribution is a lazy section since the snapshot PR: sites carry
    # no ASN/org until the section materialises (the engine ensures it
    # before building its first plan).
    assert world.section_state()["attribution_stale"]
    assert all(site.asn is None for site in world.sites)
    world.ensure_site_attribution()
    assert not world.section_state()["attribution_stale"]
    for site in world.sites:
        assert site.asn == site.provider.asn
        assert site.org == world.asorg.org_for(site.provider.asn)


@pytest.mark.parametrize("resolver", ["default", "cross-site-override"])
def test_plan_segments_partition_attributed_positions(resolver):
    """The plan's site segments are exactly its attributed positions,
    grouped by the site that owns each resolved address."""
    world = repro.build_world(WorldConfig(scale=GOLDEN_SCALE))
    moved = (
        point_first_domain_at_last_site(world)
        if resolver == "cross-site-override"
        else None
    )
    columns = world.scan_engine().plan_for(4, ("cno", "toplist")).columns
    site_indexes = columns.site_indexes
    attributed = []
    for position, view in enumerate(_plan_views(world, columns)):
        address = view.ip
        site = world.site_by_ip(address) if address is not None else None
        assert view.resolved == (address is not None)
        if site is None:  # unresolved or site-less
            assert site_indexes[position] == NO_ROW
        else:
            assert site_indexes[position] == site.index
            attributed.append(position)
    segmented = []
    firsts = []
    for segment in columns.segments:
        positions = sorted(segment.rank_positions)
        assert segment.first == positions[0]
        assert all(site_indexes[p] == segment.site_index for p in positions)
        firsts.append(segment.first)
        segmented.extend(positions)
    assert firsts == sorted(firsts)
    assert sorted(segmented) == attributed  # a partition: no gap, no overlap
    # The position -> (segment, rank index) columns invert the segments.
    for index, segment in enumerate(columns.segments):
        for rank, position in enumerate(segment.rank_positions):
            assert columns.segment_of[position] == index
            assert columns.rank_of[position] == rank
    assert sum(1 for s in columns.segment_of if s == NO_ROW) == columns.count - len(attributed)
    assert len({segment.site_index for segment in columns.segments}) == len(firsts)
    if moved is not None:
        position = columns.rows.index(world.domain_row(moved))
        assert site_indexes[position] == world.sites[-1].index


def _plan_views(world, columns):
    """The plan's positions as the lazy views a run serves."""
    store = ObservationStore(
        columns,
        week=world.config.reference_week,
        vantage_id="main-aachen",
        ip_version=4,
        share=0.0,
    )
    return StoreObservations(store)


def _assert_plan_agrees_with_resolver(world):
    """Every planned position carries the resolver's answer and the site
    that owns it — the address rule the plan and ``dns_record_for`` share."""
    engine = world.scan_engine()
    engine.invalidate()
    resolve = world.resolver.resolve_address
    for ip_version in (4, 6):
        for populations in (("cno",), ("cno", "toplist")):
            columns = engine.plan_for(ip_version, populations).columns
            assert columns.count == sum(
                1 for domain in world.domains if domain.population in populations
            )
            for position, view in enumerate(_plan_views(world, columns)):
                name = view.domain
                address = resolve(name, family=ip_version)
                assert view.ip == address, (name, ip_version)
                assert view.resolved == (address is not None)
                site = world.site_by_ip(address) if address is not None else None
                expected = NO_ROW if site is None else site.index
                assert columns.site_indexes[position] == expected, (name, ip_version)


def test_plan_agrees_with_the_resolver():
    world = repro.build_world(WorldConfig(scale=GOLDEN_SCALE))
    _assert_plan_agrees_with_resolver(world)

    # A record that moves a domain to another site.
    moved = point_first_domain_at_last_site(world)
    _assert_plan_agrees_with_resolver(world)

    # A record with no AAAA for a domain whose zone has one: site-less
    # and unresolved under v6, unchanged under v4.
    from repro.dns.resolver import DnsRecord

    dual = next(
        d for d in world.domains if d.has_aaaa and d.site_index >= 0 and d.name != moved
    )
    world.resolver.add(dual.name, DnsRecord(a=world.sites[dual.site_index].ip))
    _assert_plan_agrees_with_resolver(world)
    v6 = world.scan_engine().plan_for(6, ("cno", "toplist")).columns
    assert v6.ip(v6.rows.index(world.domain_row(dual.name))) is None

    # A record pointing at addresses no site owns: resolved, site-less.
    stray = next(
        d for d in world.domains if d.site_index >= 0 and d.name not in (moved, dual.name)
    )
    world.resolver.add(stray.name, DnsRecord(a="198.51.100.7", aaaa="2001:db8:ffff::7"))
    _assert_plan_agrees_with_resolver(world)
    v4 = world.scan_engine().plan_for(4, ("cno",)).columns
    position = v4.rows.index(world.domain_row(stray.name))
    assert _plan_views(world, v4)[position].resolved
    assert v4.site_indexes[position] == NO_ROW
    assert v4.segment_of[position] == NO_ROW
