"""Shared-memory world + persistent worker pool: golden equivalence.

The contract: a campaign executed by the :class:`ShmPoolScanEngine` —
world published once to a shared segment, persistent fork-pool workers
decoding it zero-copy and consuming (site range x week range) tickets —
is *byte-identical* to the serial per-site engine, through the campaign
results and through the analysis layer, for every vantage, address
family, TCP leg, worker count and ticket size; including resuming from
a checkpoint after a worker was killed mid-campaign, and from
checkpoints the removed fork-pool executor wrote.  And the pool
never leaks: the shared segment is unlinked after clean runs, worker
crashes and campaign aborts alike (the session fixture in conftest.py
additionally holds this line for the whole suite).
"""

from __future__ import annotations

import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.report import longitudinal_report
from repro.cli import main
from repro.core.codepoints import ECN
from repro.faults import FaultPlan, InjectedFault
from repro.obs import Telemetry
from repro.pipeline import Campaign, ShmPoolScanEngine, plan_tickets, run_campaign
from repro.pipeline.engine import ScanPhaseStats
from repro.scanner.quic_scan import QuicScanConfig
from repro.util import shm
from repro.util.weeks import Week
from repro.web.snapshot import SnapshotCorruption, decode_world, encode_world
from repro.web.spec import WorldConfig

from tests.conftest import requires_fork
from tests.test_checkpoint import LEGACY_CHECKPOINTS, _assert_campaigns_equal
from tests.test_pipeline_sharding import _assert_runs_equal

#: Coarse world: the all-vantages weekly matrix and lifecycle tests.
MATRIX_SCALE = 40_000
#: Deeper world: campaign golden runs and kill-and-resume.
CAMPAIGN_SCALE = 12_000


def _build(scale):
    return repro.build_world(WorldConfig(scale=scale))


def _weeks(world):
    config = world.config
    return [config.start_week, config.start_week + 8, config.reference_week]


def _shm_entries():
    if not os.path.isdir("/dev/shm"):
        return set()
    return {n for n in os.listdir("/dev/shm") if n.startswith(shm.SEGMENT_PREFIX)}


@pytest.fixture(scope="module")
def campaign_reference():
    """The golden reference: the serial per-site oracle + its report."""
    world = _build(CAMPAIGN_SCALE)
    engine = world.scan_engine()
    campaign = Campaign()
    for week in _weeks(world):
        campaign.add_run(engine.run_week(week, populations=("cno",)))
    return world, campaign, longitudinal_report(campaign)


# ----------------------------------------------------------------------
# Golden matrix: pool == serial per-site, campaign + analysis
# ----------------------------------------------------------------------
@requires_fork
@pytest.mark.parametrize(
    "workers,ticket_sites",
    [(1, None), (2, None), (4, None), (2, 7), (4, 64)],
)
def test_pool_campaign_matches_inline(campaign_reference, workers, ticket_sites):
    ref_world, reference, ref_report = campaign_reference
    world = _build(CAMPAIGN_SCALE)
    stats = ScanPhaseStats()
    campaign = run_campaign(
        world,
        weeks=_weeks(world),
        workers=workers,
        ticket_sites=ticket_sites,
        phase_stats=stats,
    )
    _assert_campaigns_equal(ref_world, reference, world, campaign)
    # Analysis is a pure function of the results, so figure-for-figure
    # the reports must render identically.
    assert longitudinal_report(campaign) == ref_report
    # A clean run needed no supervision.
    assert stats.shard_retries == 0
    assert stats.shard_timeouts == 0
    assert stats.shard_failures == 0
    assert shm.live_segments() == []


@requires_fork
def test_pool_week_matrix_all_vantages_families_tcp():
    """One warm pool, every vantage, v4/v6, plus the CE-probing TCP leg."""
    fresh = _build(MATRIX_SCALE)
    pooled = _build(MATRIX_SCALE)
    week = fresh.config.reference_week
    with ShmPoolScanEngine(pooled, workers=2) as engine:
        for vantage in fresh.vantage_list:
            kwargs = dict(ip_version=4, populations=("cno",))
            _assert_runs_equal(
                fresh.scan_engine().run_week(
                    week, vantage.vantage_id, **kwargs
                ),
                engine.run_week(week, vantage.vantage_id, **kwargs),
            )
        v6 = dict(ip_version=6, populations=("cno",))
        _assert_runs_equal(
            fresh.scan_engine().run_week(
                fresh.config.ipv6_week, **v6
            ),
            engine.run_week(pooled.config.ipv6_week, **v6),
        )
        tcp = dict(
            populations=("cno",),
            include_tcp=True,
            quic_config=QuicScanConfig(probe_codepoint=ECN.CE),
        )
        _assert_runs_equal(
            fresh.scan_engine().run_week(
                fresh.config.tcp_week, **tcp
            ),
            engine.run_week(pooled.config.tcp_week, **tcp),
        )
        assert engine.supervision.snapshot() == (0, 0, 0, 0)
    assert fresh.clock.now == pooled.clock.now
    assert shm.live_segments() == []


@requires_fork
def test_warm_engine_reruns_identically(campaign_reference):
    """A persistent engine serves back-to-back campaigns; the second
    replays worker-memoised ticket buffers and is still golden."""
    ref_world, reference, ref_report = campaign_reference
    world = _build(CAMPAIGN_SCALE)
    with ShmPoolScanEngine(world, workers=2) as engine:
        first = run_campaign(world, weeks=_weeks(world), engine=engine)
        _assert_campaigns_equal(ref_world, reference, world, first)
        second = run_campaign(world, weeks=_weeks(world), engine=engine)
        for ref_run, run in zip(reference.runs, second.runs, strict=True):
            _assert_runs_equal(ref_run, run)
        assert longitudinal_report(second) == ref_report
        assert engine.supervision.snapshot() == (0, 0, 0, 0)
    assert shm.live_segments() == []


# ----------------------------------------------------------------------
# Kill-and-resume under worker crash
# ----------------------------------------------------------------------
@requires_fork
@pytest.mark.parametrize("resume_workers", [1, 3])
def test_worker_kill_and_resume_matches_uninterrupted(
    tmp_path, campaign_reference, resume_workers
):
    """Crash a pool worker mid-campaign, abort the campaign one week
    later, then resume from the checkpoints under a *different* worker
    count — still the uninterrupted result."""
    ref_world, reference, _ = campaign_reference
    world = _build(CAMPAIGN_SCALE)
    weeks = _weeks(world)
    plan = (
        FaultPlan(seed=11)
        .crash_worker(shard=0, week=weeks[0])
        .abort_campaign_after(weeks[1])
    )
    stats = ScanPhaseStats()
    with pytest.raises(InjectedFault):
        run_campaign(
            world,
            weeks=weeks,
            workers=2,
            checkpoint_dir=tmp_path,
            fault_plan=plan,
            shard_timeout=1.0,
            phase_stats=stats,
        )
    # The killed worker surfaced as a lost-ticket timeout and a retry
    # recovered it before the abort fired.
    assert stats.shard_timeouts >= 1
    assert stats.shard_retries >= 1
    assert shm.live_segments() == []
    resumed_world = _build(CAMPAIGN_SCALE)
    resumed = run_campaign(
        resumed_world,
        weeks=weeks,
        workers=resume_workers,
        checkpoint_dir=tmp_path,
        resume=True,
    )
    _assert_campaigns_equal(ref_world, reference, resumed_world, resumed)
    assert shm.live_segments() == []


@requires_fork
def test_resume_crosses_pool_and_sharded_engines(tmp_path):
    """Checkpoints key on results, not the executor: the week files the
    removed fork-pool (sharded) engine wrote resume on the shm pool —
    every week rehydrates, none recomputes, and the campaign equals a
    fresh pool campaign."""
    checkpoints = tmp_path / "checkpoints"
    shutil.copytree(LEGACY_CHECKPOINTS, checkpoints)
    assert len(list(checkpoints.rglob("*.ecnc"))) == 5
    # The fixtures come from the CLI, which parses --scale as a float;
    # the float is part of the world fingerprint the checkpoint key digests.
    fresh_world = _build(20_000.0)
    fresh = run_campaign(fresh_world, cadence_weeks=12, workers=2)
    world = _build(20_000.0)
    telemetry = Telemetry()
    resumed = run_campaign(
        world, cadence_weeks=12, workers=2, checkpoint_dir=checkpoints,
        resume=True, telemetry=telemetry,
    )
    registry = telemetry.registry
    assert registry.counter("campaign.checkpoint.weeks_resumed").value == 5
    assert registry.counter("campaign.checkpoint.weeks_stored").value == 0
    _assert_campaigns_equal(fresh_world, fresh, world, resumed)
    assert shm.live_segments() == []


# ----------------------------------------------------------------------
# Ticket tiling + merge properties
# ----------------------------------------------------------------------
_week_st = st.builds(Week, st.integers(2020, 2026), st.integers(1, 52))


@settings(max_examples=80, deadline=None)
@given(
    site_count=st.integers(0, 120),
    weeks=st.lists(_week_st, max_size=6, unique=True),
    ticket_sites=st.integers(1, 130),
    ticket_weeks=st.one_of(st.none(), st.integers(1, 7)),
)
def test_tickets_tile_every_cell_exactly_once(
    site_count, weeks, ticket_sites, ticket_weeks
):
    tickets = plan_tickets(
        site_count, weeks, ticket_sites=ticket_sites, ticket_weeks=ticket_weeks
    )
    assert [t.index for t in tickets] == list(range(len(tickets)))
    covered = {}
    for ticket in tickets:
        assert 0 <= ticket.site_lo < ticket.site_hi <= site_count
        assert ticket.site_hi - ticket.site_lo <= ticket_sites
        assert ticket.weeks
        for site in range(ticket.site_lo, ticket.site_hi):
            for week in ticket.weeks:
                cell = (site, week)
                assert cell not in covered, f"cell {cell} covered twice"
                covered[cell] = ticket.index
    assert len(covered) == site_count * len(weeks)


@settings(max_examples=40, deadline=None)
@given(
    site_count=st.integers(1, 60),
    weeks=st.lists(_week_st, min_size=1, max_size=4, unique=True),
    ticket_sites=st.integers(1, 70),
    ticket_weeks=st.one_of(st.none(), st.integers(1, 5)),
    data=st.data(),
)
def test_ticket_merge_is_order_independent(
    site_count, weeks, ticket_sites, ticket_weeks, data
):
    """Workers compute a pure function of the cell, and tickets never
    overlap — so harvesting them in any completion order merges to the
    same result."""
    tickets = plan_tickets(
        site_count, weeks, ticket_sites=ticket_sites, ticket_weeks=ticket_weeks
    )

    def result_of(ticket):
        return {
            (site, week): (site * 1_000_003 + week.year * 53 + week.week)
            for site in range(ticket.site_lo, ticket.site_hi)
            for week in ticket.weeks
        }

    def merge(order):
        merged = {}
        for ticket in order:
            merged.update(result_of(ticket))
        return merged

    shuffled = data.draw(st.permutations(tickets))
    assert merge(tickets) == merge(shuffled)


def test_plan_tickets_validates_arguments():
    week = Week(2023, 15)
    with pytest.raises(ValueError, match="site_count"):
        plan_tickets(-1, [week], ticket_sites=4)
    with pytest.raises(ValueError, match="ticket_sites"):
        plan_tickets(10, [week], ticket_sites=0)
    with pytest.raises(ValueError, match="ticket_weeks"):
        plan_tickets(10, [week], ticket_sites=4, ticket_weeks=0)
    assert plan_tickets(0, [week], ticket_sites=4) == []
    assert plan_tickets(5, [], ticket_sites=4) == []


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
# Segment lifecycle: nothing leaks, ever
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "backend",
    [
        pytest.param(
            "shm",
            marks=pytest.mark.skipif(
                not shm.shared_memory_available(),
                reason="POSIX shared memory unavailable",
            ),
        ),
        "mmap",
    ],
)
def test_shared_segment_roundtrip_and_unlink(backend):
    payload = bytes(range(256)) * 33
    segment = shm.SharedSegment.create(payload, backend=backend)
    try:
        assert segment.name.startswith(shm.SEGMENT_PREFIX)
        assert segment.name in shm.live_segments()
        view = segment.view()
        assert view.readonly
        assert bytes(view) == payload
        view.release()
        if backend == "shm" and os.path.isdir("/dev/shm"):
            assert segment.name in os.listdir("/dev/shm")
    finally:
        segment.unlink()
    assert segment.name not in shm.live_segments()
    if os.path.isdir("/dev/shm"):
        assert segment.name not in os.listdir("/dev/shm")
    segment.unlink()  # idempotent


def test_shared_segment_context_manager():
    with shm.SharedSegment.create(b"ecn-world") as segment:
        view = segment.view()
        assert bytes(view) == b"ecn-world"
        view.release()
    assert segment.name not in shm.live_segments()


@requires_fork
def test_clean_campaign_leaves_no_segment():
    before = _shm_entries()
    world = _build(MATRIX_SCALE)
    run_campaign(world, weeks=_weeks(world)[:2], workers=2)
    assert shm.live_segments() == []
    assert _shm_entries() <= before


@requires_fork
def test_worker_crash_leaves_no_segment():
    before = _shm_entries()
    world = _build(MATRIX_SCALE)
    weeks = _weeks(world)[:2]
    plan = FaultPlan(seed=7).crash_worker(shard=0, week=weeks[0])
    stats = ScanPhaseStats()
    run_campaign(
        world,
        weeks=weeks,
        workers=2,
        fault_plan=plan,
        shard_timeout=1.0,
        phase_stats=stats,
    )
    assert stats.shard_retries >= 1
    assert shm.live_segments() == []
    assert _shm_entries() <= before


@requires_fork
def test_aborted_campaign_leaves_no_segment():
    before = _shm_entries()
    world = _build(MATRIX_SCALE)
    weeks = _weeks(world)[:2]
    plan = FaultPlan().abort_campaign_after(weeks[0])
    with pytest.raises(InjectedFault):
        run_campaign(world, weeks=weeks, workers=2, fault_plan=plan)
    assert shm.live_segments() == []
    assert _shm_entries() <= before


@requires_fork
def test_engine_close_is_idempotent():
    world = _build(MATRIX_SCALE)
    engine = ShmPoolScanEngine(world, workers=1)
    engine.run_week(world.config.reference_week, populations=("cno",))
    engine.close()
    engine.close()
    assert shm.live_segments() == []


# ----------------------------------------------------------------------
# Configuration validation + CLI surface
# ----------------------------------------------------------------------
def test_campaign_pool_validation_errors():
    world = _build(400_000)
    with pytest.raises(ValueError, match="ticket_sites"):
        run_campaign(world, ticket_sites=8)
    with pytest.raises(ValueError, match="engine="):
        run_campaign(world, workers=2, engine=object())
    with pytest.raises(ValueError, match="engine="):
        run_campaign(world, engine=object(), shard_timeout=1.0)
    with pytest.raises(ValueError, match="workers"):
        run_campaign(world, max_shard_retries=1)


@requires_fork
def test_engine_constructor_validations():
    world = _build(400_000)
    with pytest.raises(ValueError, match="ticket_sites"):
        ShmPoolScanEngine(world, ticket_sites=0)
    with pytest.raises(ValueError, match="ticket_weeks"):
        ShmPoolScanEngine(world, ticket_weeks=0)
    with pytest.raises(ValueError, match="workers"):
        ShmPoolScanEngine(world, workers=0)


@requires_fork
def test_cli_campaign_workers_runs(capsys):
    code = main(
        ["campaign", "--scale", "400000", "--workers", "2", "--ticket-sites", "64"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Figure 3" in out
    assert shm.live_segments() == []


def test_cli_campaign_flag_conflicts(capsys, tmp_path):
    assert main(["campaign", "--ticket-sites", "9"]) == 2
    assert "--ticket-sites requires --workers" in capsys.readouterr().err
    assert main(["campaign", "--shard-retries", "3"]) == 2
    assert "--shard-retries requires --workers" in capsys.readouterr().err
    # The removed fork-pool flags are unknown options, not aliases.
    for flag in ("--shards", "--shard-executor"):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", flag, "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
