"""The pool's site partition is invisible: determinism on demand.

The pool engine's contract is that the *partition is invisible*:
per-site RNG substreams are seeded from stable identities (world seed,
week, vantage, family, site, kind), so any worker count ("shards", one
site range per worker) and any ticket layout must merge to results
identical to the serial :class:`ScanEngine` with the same observations,
site records, traces and world-clock trajectory.  The campaign legs of
``tests/differential.py`` hold that line for prefetched multi-week
tickets; this module drives single TCP+QUIC weeks with tracebox on
demand, which the campaign never does.
"""

from __future__ import annotations

import math

import pytest

import repro
from repro.pipeline.sharding import ShmPoolScanEngine
from repro.web.spec import WorldConfig

from tests.conftest import requires_fork
from tests.differential import assert_runs_equal

SCALE = 6_000
SCAN = dict(include_tcp=True, plugins=("ecn", "trace"))


def _build():
    return repro.build_world(WorldConfig(scale=SCALE))


@pytest.fixture(scope="module")
def serial_per_site():
    """The serial engine's TCP+QUIC reference week with tracebox."""
    world = _build()
    return world, world.scan_engine().run_week(world.config.reference_week, **SCAN)


def _assert_pool_week_matches(serial_per_site, leg, prefetched_tickets=None, **engine_kwargs):
    world_ref, reference = serial_per_site
    world = _build()
    week = world.config.reference_week
    with ShmPoolScanEngine(world, **engine_kwargs) as engine:
        if prefetched_tickets is not None:
            assert engine.prefetch_weeks([week], **SCAN) == prefetched_tickets
        run = engine.run_week(week, **SCAN)
    assert reference.traces
    assert_runs_equal(reference, run, leg=leg)
    assert world_ref.clock.now == world.clock.now


@requires_fork
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sharded_matches_serial_per_site(serial_per_site, workers):
    _assert_pool_week_matches(serial_per_site, f"pool-{workers}", workers=workers)


@requires_fork
def test_sharded_results_invariant_under_worker_permutation(serial_per_site):
    """Three tickets land on workers in arbitrary order; the merge is
    still the serial result."""
    _assert_pool_week_matches(serial_per_site, "pool-3", workers=3)


@requires_fork
def test_sharded_process_executor_matches(serial_per_site):
    """Prefetched tickets (the campaign path) merge like on-demand ones."""
    _assert_pool_week_matches(serial_per_site, "pool-3, prefetched", 3, workers=3)


def test_per_site_mode_is_reproducible_run_to_run():
    """Two identically-seeded worlds produce identical runs."""
    world_a, world_b = _build(), _build()
    week = world_a.config.reference_week
    assert_runs_equal(
        world_a.scan_engine().run_week(week),
        world_b.scan_engine().run_week(week),
        leg="second world",
    )
    assert world_a.clock.now == world_b.clock.now


@requires_fork
def test_campaign_with_shards_matches_unsharded_per_site():
    """A two-population campaign on 2 workers equals serial weeks."""
    world_a, world_b = _build(), _build()
    weeks = [world_a.config.start_week, world_a.config.reference_week]
    engine = world_a.scan_engine()
    runs = [engine.run_week(week) for week in weeks]
    campaign = repro.run_campaign(
        world_b, weeks=weeks, workers=2, populations=("cno", "toplist")
    )
    for reference, run in zip(runs, campaign.runs, strict=True):
        assert_runs_equal(reference, run, leg="pool-2 campaign")
    assert world_a.clock.now == world_b.clock.now


def test_sharded_engine_rejects_bad_executors():
    world = _build()
    with pytest.raises(ValueError, match="workers"):
        ShmPoolScanEngine(world, workers=-1)
    for timeout in (0, math.inf, math.nan):
        with pytest.raises(ValueError, match="shard_timeout"):
            ShmPoolScanEngine(world, workers=1, shard_timeout=timeout)
    with pytest.raises(ValueError, match="max_shard_retries"):
        ShmPoolScanEngine(world, workers=1, max_shard_retries=-1)
