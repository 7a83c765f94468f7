"""Parallel site phase: determinism and golden equivalence.

The pool engine's contract is that the *partition is invisible*:
per-site RNG substreams are seeded from stable identities (world seed,
week, vantage, family, site, kind), so any worker count and any ticket
tiling must merge to results identical to the serial
:class:`ScanEngine` — the oracle — with the same observations, site
records and world-clock trajectory.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.pipeline.sharding import ShmPoolScanEngine
from repro.scanner.results import DomainObservation
from repro.web.spec import WorldConfig

from tests.conftest import requires_fork

SCALE = 6_000

OBSERVATION_FIELDS = [f.name for f in dataclasses.fields(DomainObservation)]


def _build():
    return repro.build_world(WorldConfig(scale=SCALE))


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


@pytest.fixture(scope="module")
def serial_per_site():
    """The serial engine in per-site RNG mode — the golden reference."""
    world = _build()
    week = world.config.reference_week
    run = world.scan_engine().run_week(
        week, include_tcp=True, plugins=("ecn", "trace")
    )
    return world, run


@requires_fork
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sharded_matches_serial_per_site(serial_per_site, workers):
    world_ref, reference = serial_per_site
    world = _build()
    with ShmPoolScanEngine(world, workers=workers) as engine:
        run = engine.run_week(
            world.config.reference_week, include_tcp=True, plugins=("ecn", "trace")
        )
    _assert_runs_equal(reference, run)
    assert world_ref.clock.now == world.clock.now


@requires_fork
def test_sharded_results_invariant_under_worker_permutation(serial_per_site):
    """Many small tickets land on workers in arbitrary order; the merge
    is still the serial per-site result."""
    world_ref, reference = serial_per_site
    world = _build()
    with ShmPoolScanEngine(world, workers=3, ticket_sites=5) as engine:
        run = engine.run_week(
            world.config.reference_week, include_tcp=True, plugins=("ecn", "trace")
        )
    _assert_runs_equal(reference, run)
    assert world_ref.clock.now == world.clock.now


@requires_fork
def test_sharded_process_executor_matches(serial_per_site):
    """Prefetched tickets (the campaign path) merge like on-demand ones."""
    world_ref, reference = serial_per_site
    world = _build()
    week = world.config.reference_week
    with ShmPoolScanEngine(world, workers=3) as engine:
        assert engine.prefetch_weeks(
            [week], include_tcp=True, plugins=("ecn", "trace")
        ) == 3
        run = engine.run_week(week, include_tcp=True, plugins=("ecn", "trace"))
    _assert_runs_equal(reference, run)
    assert world_ref.clock.now == world.clock.now


def test_per_site_mode_is_reproducible_run_to_run():
    """Two identically-seeded worlds produce identical per-site runs."""
    run_a = _build().scan_engine().run_week(
        _build().config.reference_week
    )
    run_b = _build().scan_engine().run_week(
        _build().config.reference_week
    )
    _assert_runs_equal(run_a, run_b)


@requires_fork
def test_campaign_with_shards_matches_unsharded_per_site():
    world_a, world_b = _build(), _build()
    weeks = [world_a.config.start_week, world_a.config.reference_week]
    engine = world_a.scan_engine()
    runs = [engine.run_week(week) for week in weeks]
    campaign = repro.run_campaign(
        world_b, weeks=weeks, workers=2, populations=("cno", "toplist")
    )
    for reference, run in zip(runs, campaign.runs, strict=True):
        _assert_runs_equal(reference, run)
    assert world_a.clock.now == world_b.clock.now


def test_sharded_engine_rejects_bad_executors():
    world = _build()
    with pytest.raises(ValueError, match="workers"):
        ShmPoolScanEngine(world, workers=0)
    with pytest.raises(ValueError, match="shard_timeout"):
        ShmPoolScanEngine(world, shard_timeout=0)
    with pytest.raises(ValueError, match="max_shard_retries"):
        ShmPoolScanEngine(world, max_shard_retries=-1)


def test_sharded_engine_shares_plan_cache_with_serial_engine():
    world = _build()
    serial = world.scan_engine()
    plan = serial.plan_for(4, ("cno", "toplist"))
    with ShmPoolScanEngine(world, workers=2) as engine:
        assert engine.plan_for(4, ("cno", "toplist")) is plan
