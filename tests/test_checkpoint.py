"""Campaign checkpointing: kill-and-resume golden equivalence.

The contract: a campaign interrupted after any week and resumed from
its checkpoint directory produces results *identical* to an
uninterrupted run (same observations, site records, plugin rows, world
clock and report): the canonical campaign's serial oracle
(``tests/differential.py``).  Kill-and-resume runs once per execution
path (serial engine, pool worker processes, pool inline fallback);
resuming also crosses executors, worker counts and ticket tilings, and
files written by earlier releases resume too (the committed fixtures,
resumed in ``tests/test_shm_pool.py``).  Corrupt, foreign or missing
checkpoint files are never trusted: the week recomputes and the output
is unchanged.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, InjectedFault
from repro.obs import Telemetry
from repro.pipeline import run_campaign, sharding
from repro.pipeline.checkpoint import (
    CampaignCheckpointer,
    campaign_checkpoint_key,
)
from repro.quic.connection import QuicConnectionResult
from repro.util.atomic import atomic_write_bytes

from tests.conftest import requires_fork
from tests.differential import (
    CAMPAIGN_PLUGINS,
    CAMPAIGN_WEEKS,
    assert_campaign_matches,
    campaign_world,
    pool_path_kwargs,
    run_canonical_campaign,
)

def _campaign(world, **kwargs):
    kwargs.setdefault("workers", 2)
    return run_canonical_campaign(world, **kwargs)


#: Kill-and-resume legs, one per execution path: the serial engine
#: (``workers=None``) and a 2-worker pool whose tickets run in worker
#: processes or fall back inline.
_RESUME_LEGS = [
    pytest.param(2, "process", id="2-process", marks=requires_fork),
    pytest.param(2, "inline", id="2-inline", marks=requires_fork),
    pytest.param(None, "serial", id="serial"),
]


def _path_kwargs(path, plan=None):
    if path == "serial":
        return {"fault_plan": plan} if plan is not None else {}
    return pool_path_kwargs(path, plan)


@pytest.mark.parametrize(("workers", "path"), _RESUME_LEGS)
def test_kill_and_resume_matches_uninterrupted(tmp_path, campaign_legs, workers, path):
    """Golden for the serial engine and for the pool, whether its
    tickets run in worker processes or fall back to inline execution in
    the parent."""
    # Crash (via the fault harness) after the second of three weeks...
    world = campaign_world()
    plan = FaultPlan().abort_campaign_after(CAMPAIGN_WEEKS[1])
    with pytest.raises(InjectedFault):
        _campaign(
            world, workers=workers, checkpoint_dir=tmp_path, **_path_kwargs(path, plan)
        )
    # ...then resume on a fresh world: completed weeks rehydrate from
    # disk, the rest compute, and the result is the uninterrupted one.
    resumed_world = campaign_world()
    telemetry = Telemetry()
    resumed = _campaign(
        resumed_world,
        workers=workers,
        checkpoint_dir=tmp_path,
        resume=True,
        telemetry=telemetry,
        **_path_kwargs(path),
    )
    assert_campaign_matches(
        campaign_legs.oracle, resumed_world, resumed, leg=f"resumed on {path}"
    )
    # Only the inline path leaves supervision work behind: each ticket
    # of the recomputed week fails once and re-executes in the parent.
    failures = telemetry.registry.value("campaign.supervision.failures")
    assert (failures > 0) == (path == "inline")
    assert telemetry.registry.value("campaign.supervision.retries") == failures


@requires_fork
@pytest.mark.parametrize(
    ("writer", "reader"), [(None, 2), (2, None)], ids=["serial-to-pool", "pool-to-serial"]
)
def test_resume_crosses_serial_and_pool_executors(tmp_path, campaign_legs, writer, reader):
    """Checkpoints written by one executor resume on the other, golden."""
    world = campaign_world()
    plan = FaultPlan().abort_campaign_after(CAMPAIGN_WEEKS[1])
    with pytest.raises(InjectedFault):
        _campaign(world, workers=writer, checkpoint_dir=tmp_path, fault_plan=plan)
    resumed_world = campaign_world()
    telemetry = Telemetry()
    resumed = _campaign(
        resumed_world,
        workers=reader,
        checkpoint_dir=tmp_path,
        resume=True,
        telemetry=telemetry,
    )
    assert_campaign_matches(
        campaign_legs.oracle, resumed_world, resumed, leg=f"resumed on workers={reader}"
    )
    registry = telemetry.registry
    assert registry.counter("campaign.checkpoint.weeks_resumed").value == 2
    assert registry.counter("campaign.checkpoint.weeks_stored").value == 1


@requires_fork
def test_resume_survives_shard_and_executor_changes(tmp_path, campaign_legs):
    """Checkpoints key on results, not partition: write with 2 workers,
    resume with 4 workers, still golden."""
    world = campaign_world()
    plan = FaultPlan().abort_campaign_after(CAMPAIGN_WEEKS[0])
    with pytest.raises(InjectedFault):
        _campaign(world, checkpoint_dir=tmp_path, fault_plan=plan)
    resumed_world = campaign_world()
    resumed = _campaign(
        resumed_world, workers=4, checkpoint_dir=tmp_path, resume=True
    )
    assert_campaign_matches(
        campaign_legs.oracle, resumed_world, resumed, leg="resumed on 4 workers"
    )


@requires_fork
def test_corrupted_checkpoint_file_recomputes(tmp_path, campaign_legs):
    world = campaign_world()
    _campaign(world, checkpoint_dir=tmp_path)
    files = sorted(tmp_path.rglob("*.ecnc"))
    assert len(files) == 3
    # Bit rot on one file, truncation on another.
    damaged = bytearray(files[0].read_bytes())
    damaged[len(damaged) // 2] ^= 0x10
    files[0].write_bytes(bytes(damaged))
    files[1].write_bytes(files[1].read_bytes()[:-7])
    resumed_world = campaign_world()
    resumed = _campaign(resumed_world, checkpoint_dir=tmp_path, resume=True)
    assert_campaign_matches(
        campaign_legs.oracle, resumed_world, resumed, leg="resumed over damaged files"
    )


@requires_fork
def test_checkpoint_corrupted_at_write_time_recomputes(tmp_path, campaign_legs):
    """A checkpoint damaged as it is written (fault hook) is simply
    never trusted on resume."""
    world = campaign_world()
    plan = (
        FaultPlan(seed=5)
        .corrupt_checkpoint(week=CAMPAIGN_WEEKS[0], mode="bitflip")
        .abort_campaign_after(CAMPAIGN_WEEKS[1])
    )
    with pytest.raises(InjectedFault):
        _campaign(world, checkpoint_dir=tmp_path, fault_plan=plan)
    resumed_world = campaign_world()
    resumed = _campaign(resumed_world, checkpoint_dir=tmp_path, resume=True)
    assert_campaign_matches(
        campaign_legs.oracle, resumed_world, resumed, leg="resumed over a torn write"
    )


def test_checkpointer_rejects_key_and_week_mismatches(tmp_path):
    world = campaign_world()
    week = world.config.reference_week
    key = campaign_checkpoint_key(
        world, vantage_id="main-aachen", populations=("cno",), plugins=CAMPAIGN_PLUGINS
    )
    store = CampaignCheckpointer(tmp_path, key)
    entries = [(3, 0, None, 0.25)]
    store.store(week, entries)
    assert store.load(week) == entries
    # A different campaign identity resolves to a different key (and a
    # different subdirectory): nothing leaks across.
    other_key = campaign_checkpoint_key(
        world, vantage_id="main-aachen", populations=("cno", "toplist")
    )
    assert other_key != key
    assert CampaignCheckpointer(tmp_path, other_key).load(week) is None
    # A file renamed to another week's slot fails the embedded week check.
    other_week = world.config.start_week
    store.path_for(week).rename(store.path_for(other_week))
    assert store.load(other_week) is None
    # Missing file: plain None, no exception.
    assert store.load(week) is None


def test_checkpoint_key_ignores_the_world_snapshot_format(monkeypatch):
    """The entries depend on the world's specs, not on how a snapshot
    lays the world out: a snapshot format bump keeps checkpoints valid."""
    from repro.web import snapshot

    world = campaign_world()
    key = campaign_checkpoint_key(world, vantage_id="main-aachen", populations=("cno",))
    monkeypatch.setattr(snapshot, "MAGIC", snapshot.MAGIC[:-1] + b"9")
    assert campaign_checkpoint_key(
        world, vantage_id="main-aachen", populations=("cno",)
    ) == key


@requires_fork
def test_rerun_without_resume_recomputes_and_overwrites(tmp_path, campaign_legs):
    _campaign(campaign_world(), checkpoint_dir=tmp_path)
    stamps = {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*.ecnc")}
    second = campaign_world()
    campaign = _campaign(second, checkpoint_dir=tmp_path)  # resume=False
    assert_campaign_matches(campaign_legs.oracle, second, campaign, leg="rerun")
    for path, stamp in stamps.items():
        assert path.stat().st_mtime_ns >= stamp  # rewritten, not reused


@requires_fork
def test_pool_writes_the_serial_checkpoint_bytes_and_shares_decoded_results(
    tmp_path, monkeypatch
):
    """A 2-worker campaign writes byte-identical checkpoint files, and
    its parent holds one QUIC result object per distinct encoding in
    each ticket buffer it decoded, not one per entry."""
    serial_dir, pool_dir = tmp_path / "serial", tmp_path / "pool"
    _campaign(campaign_world(), workers=None, checkpoint_dir=serial_dir)
    buffers: list[list] = []
    decode = sharding.decode_shard_payload_obs

    def recording(buffer):
        payload = decode(buffer)
        buffers.append(payload[0])
        return payload

    monkeypatch.setattr(sharding, "decode_shard_payload_obs", recording)
    campaign = _campaign(campaign_world(), workers=2, checkpoint_dir=pool_dir)
    files = sorted(path.relative_to(serial_dir) for path in serial_dir.rglob("*.ecnc"))
    assert len(files) == len(CAMPAIGN_WEEKS)
    assert files == sorted(path.relative_to(pool_dir) for path in pool_dir.rglob("*.ecnc"))
    for name in files:
        assert (pool_dir / name).read_bytes() == (serial_dir / name).read_bytes(), name
    objects = {
        id(record.quic)
        for run in campaign.runs
        for record in run.site_records.values()
        if record.quic is not None
    }
    # Equal values encode to equal bytes within one buffer, and back.
    encodings = sum(
        len({repr(r) for _, _, r, _ in entries if isinstance(r, QuicConnectionResult)})
        for entries in buffers
    )
    assert len(buffers) >= len(CAMPAIGN_WEEKS)
    assert 0 < len(objects) <= encodings


def test_checkpoint_validation_errors():
    world = campaign_world()
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
