"""Campaign checkpointing: kill-and-resume golden equivalence.

The contract: a campaign interrupted after any week and resumed from
its checkpoint directory produces results *identical* to an
uninterrupted run — same observations, same site records, same world
clock — equal to the serial oracle, including resuming on a different
executor, worker count or ticket tiling than the one that wrote the
checkpoints, and resuming files written by earlier releases (the
committed fixtures, resumed in ``tests/test_shm_pool.py``).  Corrupt,
foreign or missing checkpoint files are never trusted: the week
recomputes and the output is unchanged.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.faults import FaultPlan, InjectedFault
from repro.obs import Telemetry
from repro.pipeline import Campaign, ScanPhaseStats, run_campaign
from repro.pipeline.checkpoint import (
    CampaignCheckpointer,
    campaign_checkpoint_key,
)
from repro.util.atomic import atomic_write_bytes
from repro.web.spec import WorldConfig

from tests.conftest import pool_path_kwargs, requires_fork
from tests.test_pipeline_sharding import _assert_runs_equal

SCALE = 6_000
POPULATIONS = ("cno", "toplist")
#: ECNCKPT1 week files a fork-pool campaign wrote before that executor
#: was removed: ``repro campaign --scale 20000`` (default seed, cadence
#: 12, ``--shards 2 --shard-executor process --checkpoint-dir``).
LEGACY_CHECKPOINTS = Path(__file__).parent / "fixtures" / "checkpoints"


def _build():
    return repro.build_world(WorldConfig(scale=SCALE))


def _weeks(world):
    config = world.config
    return [config.start_week, config.start_week + 8, config.reference_week]


def _campaign(world, **kwargs):
    kwargs.setdefault("workers", 2)
    return run_campaign(
        world, weeks=_weeks(world), populations=POPULATIONS, **kwargs
    )


def _assert_campaigns_equal(ref_world, reference, world, campaign):
    assert reference.weeks() == campaign.weeks()
    for ref_run, run in zip(reference.runs, campaign.runs, strict=True):
        _assert_runs_equal(ref_run, run)
    assert ref_world.clock.now == world.clock.now


@pytest.fixture(scope="module")
def uninterrupted():
    """The golden reference: the serial engine, never interrupted."""
    world = _build()
    engine = world.scan_engine()
    campaign = Campaign()
    for week in _weeks(world):
        campaign.add_run(
            engine.run_week(week, populations=POPULATIONS)
        )
    return world, campaign


#: Kill-and-resume legs: every pool worker count down both ticket
#: paths, plus the serial engine (``workers=None``).
_RESUME_LEGS = [
    pytest.param(workers, path, id=f"{workers}-{path}", marks=requires_fork)
    for workers in (1, 2, 4)
    for path in ("inline", "process")
] + [pytest.param(None, "serial", id="serial")]


def _path_kwargs(path, plan=None):
    if path == "serial":
        return {"fault_plan": plan} if plan is not None else {}
    return pool_path_kwargs(path, plan)


@pytest.mark.parametrize(("workers", "path"), _RESUME_LEGS)
def test_kill_and_resume_matches_uninterrupted(
    tmp_path, uninterrupted, workers, path
):
    """Golden for the serial engine and every worker count, whether the
    pool's tickets run in worker processes or fall back to inline
    execution in the parent."""
    ref_world, reference = uninterrupted
    # Crash (via the fault harness) after the second of three weeks...
    world = _build()
    plan = FaultPlan().abort_campaign_after(_weeks(world)[1])
    with pytest.raises(InjectedFault):
        _campaign(
            world,
            workers=workers,
            checkpoint_dir=tmp_path,
            **_path_kwargs(path, plan),
        )
    # ...then resume on a fresh world: completed weeks rehydrate from
    # disk, the rest compute, and the result is the uninterrupted one.
    resumed_world = _build()
    stats = ScanPhaseStats()
    resumed = _campaign(
        resumed_world,
        workers=workers,
        checkpoint_dir=tmp_path,
        resume=True,
        phase_stats=stats,
        **_path_kwargs(path),
    )
    _assert_campaigns_equal(ref_world, reference, resumed_world, resumed)
    # Only the inline path leaves supervision work behind: each ticket
    # of the recomputed week fails once and re-executes in the parent.
    assert (stats.shard_failures > 0) == (path == "inline")
    assert stats.shard_retries == stats.shard_failures


@requires_fork
@pytest.mark.parametrize(
    ("writer", "reader"), [(None, 2), (2, None)], ids=["serial-to-pool", "pool-to-serial"]
)
def test_resume_crosses_serial_and_pool_executors(
    tmp_path, uninterrupted, writer, reader
):
    """Checkpoints written by one executor resume on the other, golden."""
    ref_world, reference = uninterrupted
    world = _build()
    plan = FaultPlan().abort_campaign_after(_weeks(world)[1])
    with pytest.raises(InjectedFault):
        _campaign(world, workers=writer, checkpoint_dir=tmp_path, fault_plan=plan)
    resumed_world = _build()
    telemetry = Telemetry()
    resumed = _campaign(
        resumed_world, workers=reader, checkpoint_dir=tmp_path, resume=True,
        telemetry=telemetry,
    )
    _assert_campaigns_equal(ref_world, reference, resumed_world, resumed)
    registry = telemetry.registry
    assert registry.counter("campaign.checkpoint.weeks_resumed").value == 2
    assert registry.counter("campaign.checkpoint.weeks_stored").value == 1


@requires_fork
def test_resume_survives_shard_and_executor_changes(tmp_path, uninterrupted):
    """Checkpoints key on results, not partition: write with 2 workers,
    resume with 4 workers on small tickets — still golden."""
    ref_world, reference = uninterrupted
    world = _build()
    plan = FaultPlan().abort_campaign_after(_weeks(world)[0])
    with pytest.raises(InjectedFault):
        _campaign(world, checkpoint_dir=tmp_path, fault_plan=plan)
    resumed_world = _build()
    resumed = _campaign(
        resumed_world, workers=4, ticket_sites=7, checkpoint_dir=tmp_path,
        resume=True,
    )
    _assert_campaigns_equal(ref_world, reference, resumed_world, resumed)


@requires_fork
def test_corrupted_checkpoint_file_recomputes(tmp_path, uninterrupted):
    ref_world, reference = uninterrupted
    world = _build()
    _campaign(world, checkpoint_dir=tmp_path)
    files = sorted(tmp_path.rglob("*.ecnc"))
    assert len(files) == 3
    # Bit rot on one file, truncation on another.
    damaged = bytearray(files[0].read_bytes())
    damaged[len(damaged) // 2] ^= 0x10
    files[0].write_bytes(bytes(damaged))
    files[1].write_bytes(files[1].read_bytes()[:-7])
    resumed_world = _build()
    resumed = _campaign(resumed_world, checkpoint_dir=tmp_path, resume=True)
    _assert_campaigns_equal(ref_world, reference, resumed_world, resumed)


@requires_fork
def test_checkpoint_corrupted_at_write_time_recomputes(tmp_path, uninterrupted):
    """A checkpoint damaged as it is written (fault hook) is simply
    never trusted on resume."""
    ref_world, reference = uninterrupted
    world = _build()
    weeks = _weeks(world)
    plan = (
        FaultPlan(seed=5)
        .corrupt_checkpoint(week=weeks[0], mode="bitflip")
        .abort_campaign_after(weeks[1])
    )
    with pytest.raises(InjectedFault):
        _campaign(world, checkpoint_dir=tmp_path, fault_plan=plan)
    resumed_world = _build()
    resumed = _campaign(resumed_world, checkpoint_dir=tmp_path, resume=True)
    _assert_campaigns_equal(ref_world, reference, resumed_world, resumed)


def test_checkpointer_rejects_key_and_week_mismatches(tmp_path):
    world = _build()
    week = world.config.reference_week
    key = campaign_checkpoint_key(
        world, vantage_id="main-aachen", populations=POPULATIONS
    )
    store = CampaignCheckpointer(tmp_path, key)
    entries = [(3, 0, None, 0.25)]
    store.store(week, entries)
    assert store.load(week) == entries
    # A different campaign identity resolves to a different key (and a
    # different subdirectory): nothing leaks across.
    other_key = campaign_checkpoint_key(
        world, vantage_id="main-aachen", populations=("cno",)
    )
    assert other_key != key
    assert CampaignCheckpointer(tmp_path, other_key).load(week) is None
    # A file renamed to another week's slot fails the embedded week check.
    other_week = world.config.start_week
    store.path_for(week).rename(store.path_for(other_week))
    assert store.load(other_week) is None
    # Missing file: plain None, no exception.
    assert store.load(week) is None


@requires_fork
def test_rerun_without_resume_recomputes_and_overwrites(tmp_path, uninterrupted):
    ref_world, reference = uninterrupted
    first = _build()
    _campaign(first, checkpoint_dir=tmp_path)
    stamps = {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*.ecnc")}
    second = _build()
    campaign = _campaign(second, checkpoint_dir=tmp_path)  # resume=False
    _assert_campaigns_equal(ref_world, reference, second, campaign)
    for path, stamp in stamps.items():
        assert path.stat().st_mtime_ns >= stamp  # rewritten, not reused


def test_checkpoint_validation_errors():
    world = _build()
    with pytest.raises(ValueError, match="resume"):
        run_campaign(world, resume=True)
    with pytest.raises(ValueError, match="tracebox"):
        run_campaign(
            world, workers=2, checkpoint_dir="/tmp/nowhere", plugins=("ecn", "trace")
        )
    with pytest.raises(ValueError, match="shard_timeout"):
        run_campaign(world, shard_timeout=5.0)


def test_atomic_write_bytes(tmp_path):
    target = tmp_path / "deep" / "nested" / "file.bin"
    assert atomic_write_bytes(target, b"first") == target
    assert target.read_bytes() == b"first"
    atomic_write_bytes(target, b"second")  # overwrite in place
    assert target.read_bytes() == b"second"
    # No temp litter after successful publication.
    assert list(target.parent.glob("*.tmp")) == []
