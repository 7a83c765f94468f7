"""Replay cache golden equivalence: cached runs == fresh runs, byte for byte.

The exchange replay cache's contract is that caching is invisible: a
run that replays cached outcomes serves exactly the observations,
site records, traces and shared-clock trajectory a cache-disabled run
produces — for every vantage, both IP families, TCP+QUIC, the serial
engine and the shm pool at any worker count (the same bar
``tests/test_store_golden.py`` sets for the columnar store).  Worlds
are built in identically-seeded pairs and driven in lockstep over
*multiple weeks*, so the cached side actually replays (week two of a
stable behaviour epoch is served from the cache, not re-simulated).
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.analysis.report import longitudinal_report
from repro.pipeline.engine import ScanEngine, ScanPhaseStats
from repro.pipeline.sharding import ShmPoolScanEngine
from repro.scanner.results import DomainObservation
from repro.web.spec import WorldConfig

from tests.conftest import requires_fork

#: Small world for the wide (vantage x family x tcp) matrix...
MATRIX_SCALE = 40_000
#: ...and a representative world for the deep end-to-end comparisons.
DEEP_SCALE = 12_000

OBSERVATION_FIELDS = [f.name for f in dataclasses.fields(DomainObservation)]


def _build(scale):
    return repro.build_world(WorldConfig(scale=scale))


def _assert_runs_equal(expected, actual):
    assert len(expected.observations) == len(actual.observations)
    for exp, act in zip(expected.observations, actual.observations, strict=True):
        for name in OBSERVATION_FIELDS:
            assert getattr(exp, name) == getattr(act, name), (
                f"{exp.domain}: field {name!r} diverged"
            )
    assert expected.site_records.keys() == actual.site_records.keys()
    for index, exp_record in expected.site_records.items():
        act_record = actual.site_records[index]
        assert exp_record.ip == act_record.ip
        assert exp_record.quic == act_record.quic
        assert exp_record.tcp == act_record.tcp
    assert expected.traces == actual.traces


# ----------------------------------------------------------------------
# Field-level equivalence across the full run matrix, multi-week
# ----------------------------------------------------------------------
def test_cached_matches_fresh_for_every_vantage_family_and_tcp():
    """All vantages x v4/v6 x TCP on/off, two consecutive weeks each."""
    world_cached = _build(MATRIX_SCALE)
    world_fresh = _build(MATRIX_SCALE)
    cached_engine = world_cached.scan_engine()
    fresh_engine = ScanEngine(world_fresh, exchange_cache=False)
    reference_week = world_cached.config.reference_week
    weeks = [reference_week + (-1), reference_week]
    cases = [
        (vantage_id, ip_version, include_tcp)
        for vantage_id in sorted(world_cached.vantages)
        for ip_version, include_tcp in ((4, True), (4, False), (6, False))
    ]
    for vantage_id, ip_version, include_tcp in cases:
        for week in weeks:
            fresh = fresh_engine.run_week(
                week,
                vantage_id,
                ip_version=ip_version,
                populations=("cno",),
                include_tcp=include_tcp,
            )
            cached = cached_engine.run_week(
                week,
                vantage_id,
                ip_version=ip_version,
                populations=("cno",),
                include_tcp=include_tcp,
            )
            _assert_runs_equal(fresh, cached)
    assert world_cached.clock.now == world_fresh.clock.now
    stats = cached_engine.exchange_cache.stats
    assert stats.hits > 0  # the cached side really replayed
    assert stats.uncacheable == 0  # every calibrated route is draw-free


def test_cached_run_with_tracebox_matches_fresh():
    world_cached = _build(DEEP_SCALE)
    world_fresh = _build(DEEP_SCALE)
    fresh_engine = ScanEngine(world_fresh, exchange_cache=False)
    week = world_cached.config.reference_week
    for scan_week in (week + (-1), week):
        fresh = fresh_engine.run_week(scan_week, include_tcp=True, plugins=("ecn", "trace"))
        cached = world_cached.scan_engine().run_week(
            scan_week, include_tcp=True, plugins=("ecn", "trace")
        )
        _assert_runs_equal(fresh, cached)
    assert world_cached.clock.now == world_fresh.clock.now


def test_replay_returns_identical_result_objects_across_weeks():
    """Hits share the recorded result object — replay, not recompute."""
    world = _build(DEEP_SCALE)
    engine = world.scan_engine()
    week = world.config.reference_week
    first = engine.run_week(week + (-1), populations=("cno",))
    second = engine.run_week(week, populations=("cno",))
    shared = [
        index
        for index, record in first.site_records.items()
        if record.quic is not None
        and index in second.site_records
        and second.site_records[index].quic is record.quic
    ]
    assert shared
    assert engine.exchange_cache.stats.hits >= len(shared)


# ----------------------------------------------------------------------
# Pool execution: workers 1/2/4, ticket tiling, worker-side accounting
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fresh_per_site_runs():
    """Cache-disabled serial per-site runs — the pool's golden reference."""
    world = _build(DEEP_SCALE)
    engine = ScanEngine(world, exchange_cache=False)
    week = world.config.reference_week
    runs = [
        engine.run_week(scan_week, include_tcp=True)
        for scan_week in (week + (-1), week)
    ]
    return world, runs


def _assert_pool_weeks_match(fresh_per_site_runs, **engine_kwargs):
    world_ref, references = fresh_per_site_runs
    world = _build(DEEP_SCALE)
    week = world.config.reference_week
    with ShmPoolScanEngine(world, **engine_kwargs) as engine:
        for reference, scan_week in zip(references, (week + (-1), week), strict=True):
            run = engine.run_week(scan_week, include_tcp=True)
            _assert_runs_equal(reference, run)
    assert world_ref.clock.now == world.clock.now
    return engine


@requires_fork
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_cached_matches_fresh_serial(fresh_per_site_runs, shards):
    engine = _assert_pool_weeks_match(fresh_per_site_runs, workers=shards)
    assert engine.exchange_cache.stats.hits > 0


@requires_fork
def test_sharded_cached_invariant_under_worker_permutation(fresh_per_site_runs):
    """Many small tickets, harvested in any worker order, merge the same."""
    _assert_pool_weeks_match(fresh_per_site_runs, workers=4, ticket_sites=9)


@requires_fork
def test_fork_pool_cached_matches_fresh_serial(fresh_per_site_runs):
    """Workers replay from their warm caches; still golden."""
    world_ref, references = fresh_per_site_runs
    world = _build(DEEP_SCALE)
    week = world.config.reference_week
    stats = ScanPhaseStats()
    with ShmPoolScanEngine(world, workers=3) as engine:
        for reference, scan_week in zip(references, (week + (-1), week), strict=True):
            run = engine.run_week(
                scan_week, include_tcp=True, phase_stats=stats
            )
            _assert_runs_equal(reference, run)
    assert world_ref.clock.now == world.clock.now
    # Worker-side counters travelled back through the codec trailer:
    # the second week replays the (stable-epoch) majority of its sites.
    assert stats.exchange_cache_hits > 0
    assert stats.exchange_cache_misses > 0


# ----------------------------------------------------------------------
# Campaign level: cache on (the default) vs cache off
# ----------------------------------------------------------------------
def test_campaign_cached_matches_uncached_and_analysis_identical():
    cached = repro.run_campaign(_build(DEEP_SCALE))
    fresh = repro.run_campaign(_build(DEEP_SCALE), exchange_cache=False)
    assert len(cached.runs) == len(fresh.runs)
    for reference, run in zip(fresh.runs, cached.runs, strict=True):
        _assert_runs_equal(reference, run)
    assert longitudinal_report(fresh) == longitudinal_report(cached)
