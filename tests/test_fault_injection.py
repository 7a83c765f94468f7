"""Supervised pool execution under injected faults.

Every fault the harness can inject (worker crash, stalled ticket,
corrupted result buffer) must be absorbed by supervision (retry, then
inline fallback) with results *identical* to the canonical campaign's
serial oracle (``tests/differential.py``): per-site RNG substreams make
retried tickets byte-deterministic, so recovery is invisible in the
output and visible only in the supervision counters.  Fault rules
address tickets by index (the ``shard`` coordinate) and week; two
workers cover each week's sites with tickets 0 and 1.
"""

from __future__ import annotations

import multiprocessing

import pytest

import repro
from repro.faults import FaultPlan, InjectedFault
from repro.pipeline.engine import ShardResultMissing
from repro.pipeline.sharding import ShmPoolScanEngine
from repro.web.spec import WorldConfig

from tests.conftest import requires_fork
from tests.differential import (
    CAMPAIGN_WEEKS,
    assert_campaign_matches,
    assert_runs_equal,
    campaign_world,
    run_canonical_weeks,
)

#: Coarse world for the replay-entry unit tests.
SCALE = 40_000
WEEK = CAMPAIGN_WEEKS[0]


def _build():
    return repro.build_world(WorldConfig(scale=SCALE))


def _run_faulted(campaign_legs, leg, plan, *, max_shard_retries=2, shard_timeout=3.0):
    """The canonical campaign, week by week (one-week tickets), on a
    faulted 2-worker pool, checked against the oracle; returns the
    pool's supervision counters."""
    world = campaign_world()
    engine = ShmPoolScanEngine(
        world,
        workers=2,
        fault_plan=plan,
        shard_timeout=shard_timeout,
        max_shard_retries=max_shard_retries,
    )
    with engine:
        campaign = run_canonical_weeks(engine)
    assert_campaign_matches(campaign_legs.oracle, world, campaign, leg=leg)
    return engine.supervision


@requires_fork
def test_worker_crash_is_retried_and_results_match(campaign_legs):
    plan = FaultPlan(seed=1).crash_worker(shard=1, week=WEEK)
    stats = _run_faulted(campaign_legs, "crashed worker", plan, shard_timeout=1.0)
    # The lost task surfaces as a timeout; exactly one retry recovers it.
    assert stats.timeouts == 1
    assert stats.retries == 1
    assert stats.fallbacks == 0
    # Neither the dead worker nor its replacement outlived close().
    assert multiprocessing.active_children() == []


@requires_fork
@pytest.mark.parametrize("mode", ["bitflip", "truncate"])
def test_corrupt_result_buffer_is_retried_and_results_match(campaign_legs, mode):
    plan = FaultPlan(seed=2).corrupt_shard_buffer(shard=0, week=WEEK, mode=mode)
    stats = _run_faulted(campaign_legs, f"{mode} result buffer", plan)
    # The damage is caught by the frame checksum, never decoded.
    assert stats.failures == 1
    assert stats.retries == 1


@requires_fork
def test_stalled_shard_times_out_and_results_match(campaign_legs):
    plan = FaultPlan(seed=3).delay_shard(6.0, shard=1, week=WEEK)
    stats = _run_faulted(campaign_legs, "stalled ticket", plan, shard_timeout=1.0)
    assert stats.timeouts >= 1
    assert stats.retries >= 1


@requires_fork
def test_persistent_crash_falls_back_inline(campaign_legs):
    """A ticket that fails every pool attempt re-executes in the parent."""
    # attempt=None: every dispatch of ticket 1 crashes its worker.
    plan = FaultPlan(seed=4).crash_worker(shard=1, week=WEEK, attempt=None)
    stats = _run_faulted(
        campaign_legs, "persistent crash", plan, max_shard_retries=1, shard_timeout=1.0
    )
    assert stats.fallbacks == 1
    assert stats.timeouts == 2  # initial attempt + one re-dispatch
    assert stats.retries == 2  # the re-dispatch + the inline fallback


def test_missing_shard_results_raise_typed_error():
    world = _build()
    week = world.config.reference_week
    with ShmPoolScanEngine(world, workers=2) as engine:
        with pytest.raises(ShardResultMissing) as excinfo:
            engine.run_week(week, include_tcp=True, replay_entries=[])
    message = str(excinfo.value)
    assert "missing" in message
    assert "site" in message
    assert "shard" in message
    assert excinfo.value.missing  # the full (site, kind) list is attached
    # Nothing was merged: the failed replay left no half-filled state.
    assert world.clock.now == 0.0


def test_partial_replay_names_only_absent_entries():
    world = _build()
    week = world.config.reference_week
    # Entries captured by the serial per-site oracle...
    run_entries = []
    full = world.scan_engine().run_week(
        week, include_tcp=True, entry_sink=run_entries
    )
    assert run_entries
    # ...replayed on the pool: covering only half the schedule, the
    # error names the rest.
    half = run_entries[: len(run_entries) // 2]
    world2 = _build()
    with ShmPoolScanEngine(world2, workers=2) as engine2:
        with pytest.raises(ShardResultMissing) as excinfo:
            engine2.run_week(week, include_tcp=True, replay_entries=half)
    assert len(excinfo.value.missing) == len(run_entries) - len(half)
    # A full replay reproduces the executed run exactly.
    world3 = _build()
    with ShmPoolScanEngine(world3, workers=4) as engine3:  # partition: irrelevant
        replayed = engine3.run_week(week, include_tcp=True, replay_entries=run_entries)
    assert_runs_equal(full, replayed, leg="full replay")
    assert world.clock.now == world3.clock.now


def test_fault_corruption_is_deterministic():
    week = repro.build_world(WorldConfig(scale=40_000)).config.reference_week
    buf = bytes(range(256)) * 8
    plan_a = FaultPlan(seed=9).corrupt_shard_buffer(shard=2, week=week)
    plan_b = FaultPlan(seed=9).corrupt_shard_buffer(shard=2, week=week)
    mangled_a = plan_a.mangle_shard_buffer(buf, shard=2, week=week, attempt=0)
    mangled_b = plan_b.mangle_shard_buffer(buf, shard=2, week=week, attempt=0)
    assert mangled_a == mangled_b != buf
    # Non-matching coordinates leave the buffer alone.
    assert plan_a.mangle_shard_buffer(buf, shard=1, week=week, attempt=0) == buf
    assert plan_a.mangle_shard_buffer(buf, shard=2, week=week, attempt=1) == buf
    # A different seed damages a different position.
    other = FaultPlan(seed=10).corrupt_shard_buffer(shard=2, week=week)
    assert other.mangle_shard_buffer(buf, shard=2, week=week, attempt=0) != mangled_a


def test_abort_rule_raises_injected_fault():
    world = _build()
    weeks = [world.config.start_week, world.config.reference_week]
    plan = FaultPlan().abort_campaign_after(weeks[0])
    with pytest.raises(InjectedFault):
        repro.run_campaign(world, weeks=weeks, fault_plan=plan)


def test_fault_plan_rejects_unknown_modes():
    with pytest.raises(ValueError):
        FaultPlan().corrupt_shard_buffer(mode="scramble")
    with pytest.raises(ValueError):
        FaultPlan().corrupt_checkpoint(mode="zero")
