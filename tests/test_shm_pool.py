"""Persistent worker pool over the parent's forked world.

The pool's results equal the serial oracle's for every worker count and
ticket layout: the campaign's pool legs of ``tests/differential.py``
hold that line (workers 1/2/3/4 and the inline fallback), and the week
matrix drives one warm 2-worker pool through every vantage and family.
This module also holds what is particular to the pool: workers that see
a route re-registered after build, a warm engine serving back-to-back
campaigns, re-dispatch after a merge gap, workers that never plan,
resuming after a worker was killed mid-campaign and from checkpoints
the removed fork-pool executor wrote, tickets cut by scheduled work,
and a pool that never leaves a worker behind after clean runs, worker
crashes and aborts alike (the session fixture in conftest.py
additionally holds this line for the whole suite).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.report import longitudinal_report
from repro.cli import main
from repro.faults import FaultPlan, InjectedFault
from repro.netsim.hops import EcnAction
from repro.netsim.network import PathTemplate
from repro.netsim.path import NetworkPath
from repro.obs import Telemetry
from repro.pipeline import ShmPoolScanEngine, plan_tickets, run_campaign
from repro.pipeline.engine import QUIC_EVENT, ScanEngine, SiteEvent
from repro.pipeline.sharding import slice_schedule
from repro.util.weeks import Week
from repro.web.spec import WorldConfig

from tests.conftest import requires_fork
from tests.differential import (
    CAMPAIGN_WEEKS,
    POOL_SHAPES,
    assert_campaign_matches,
    assert_legs_equal,
    assert_runs_equal,
    campaign_world,
    record_campaign,
    run_canonical_campaign,
)

#: Coarse world: lifecycle and planning tests.
MATRIX_SCALE = 40_000
#: ECNCKPT1 week files a fork-pool campaign wrote before that executor
#: was removed: ``repro campaign --scale 20000`` (default seed, cadence
#: 12, ``--shards 2 --shard-executor process --checkpoint-dir``).  When
#: the key stopped digesting the world snapshot fingerprint, the files
#: were re-keyed: the embedded key and the frame checksum changed, the
#: entry bytes that engine wrote did not.
LEGACY_CHECKPOINTS = Path(__file__).parent / "fixtures" / "checkpoints"


def _build(scale):
    return repro.build_world(WorldConfig(scale=scale))


def _weeks(world):
    config = world.config
    return [config.start_week, config.start_week + 8, config.reference_week]


# ----------------------------------------------------------------------
# Golden: the harness's pool legs == the serial oracle
# ----------------------------------------------------------------------
@requires_fork
@pytest.mark.parametrize("workers", POOL_SHAPES)
def test_pool_campaign_matches_inline(campaign_legs, workers):
    """The canonical campaign on 1, 2, 3 and 4 workers, one ticket per
    worker harvested in any worker order, equals the serial oracle,
    report included."""
    pooled = campaign_legs.pool(workers)
    assert_legs_equal(campaign_legs.oracle, pooled)
    # A clean run needed no supervision, and the workers' cache
    # counters travelled back through the codec trailer.
    assert pooled.supervision == (0, 0, 0, 0)
    hits, misses, _ = pooled.cache_stats
    assert hits > 0
    assert misses > 0


@requires_fork
def test_pool_inline_fallback_matches_inline(campaign_legs):
    """Every ticket re-executed inline in the parent (every worker
    buffer corrupt, no re-dispatch) equals the serial oracle."""
    pooled = campaign_legs.pool(2, path="inline")
    assert_legs_equal(campaign_legs.oracle, pooled)
    retries, timeouts, failures, _ = pooled.supervision
    # Each ticket failed once and re-executed in the parent.
    assert failures > 0
    assert retries == failures
    assert timeouts == 0


@requires_fork
def test_pool_week_matrix_all_vantages_families_tcp(week_matrix):
    """One warm 2-worker pool, every vantage x v4+TCP/v4/v6."""
    pooled = week_matrix["pool-2"]
    assert_legs_equal(week_matrix.oracle, pooled)
    assert pooled.supervision == (0, 0, 0, 0)


def _clear_ecn_on_route_of(world, site_index):
    """Re-register, after build, the site's main-aachen route so that its
    first hop clears the ECN bits, in every canonical campaign week."""
    route_key = world.sites[site_index].route_key
    for week in CAMPAIGN_WEEKS:
        template = world.network.template_for("main-aachen", route_key, week)
        variants = [
            NetworkPath(
                hops=[
                    dataclasses.replace(path.hops[0], ecn_action=EcnAction.CLEAR_ECN),
                    *path.hops[1:],
                ],
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


@requires_fork
def test_pool_sees_a_route_registered_after_build(campaign_legs):
    """Workers run on the parent's world, mutations included: with a
    mirroring QUIC site's route re-registered to clear ECN after build,
    the 2-worker campaign equals the serial one on the same mutated
    world."""
    site_index = next(
        index
        for index, (_, quic, _) in sorted(campaign_legs.oracle.runs[0].site_records.items())
        if quic is not None and quic.mirroring
    )
    serial_world = campaign_world()
    _clear_ecn_on_route_of(serial_world, site_index)
    serial = run_canonical_campaign(serial_world)
    # The cleared route shows in the output, so the comparison below is
    # not two unmutated campaigns agreeing.
    assert not serial.runs[0].site_records[site_index].quic.mirroring
    pooled_world = campaign_world()
    _clear_ecn_on_route_of(pooled_world, site_index)
    pooled = run_canonical_campaign(pooled_world, workers=2)
    for expected, run in zip(serial.runs, pooled.runs, strict=True):
        assert_runs_equal(expected, run, leg="mutated world, 2 workers")
    assert serial_world.clock.now == pooled_world.clock.now


# ----------------------------------------------------------------------
# Warm engines, merge gaps, planning
# ----------------------------------------------------------------------
@requires_fork
def test_warm_engine_reruns_identically(campaign_legs):
    """A persistent engine serves back-to-back campaigns; the parent's
    replay memo serves the second, which is still golden."""
    oracle = campaign_legs.oracle
    world = campaign_world()
    with ShmPoolScanEngine(world, workers=2) as engine:
        first = run_canonical_campaign(world, engine=engine)
        assert_campaign_matches(oracle, world, first, leg="warm pool, first campaign")
        second = run_canonical_campaign(world, engine=engine)
        for expected, run in zip(oracle.runs, second.runs, strict=True):
            assert_runs_equal(expected, run, leg="warm pool, second campaign")
        assert longitudinal_report(second) == oracle.report
        assert engine.supervision.snapshot() == (0, 0, 0, 0)


@requires_fork
def test_week_with_missing_entries_is_redispatched_not_replayed(monkeypatch):
    """A week whose merged entries have a gap is never kept for replay:
    after one ShardResultMissing the same engine re-dispatches the week
    and then equals a serial run."""
    from repro.pipeline import sharding
    from repro.pipeline.engine import ShardResultMissing

    decode = sharding.decode_shard_payload_obs
    decoded = []

    def drop_first_entry_once(buffer):
        entries, cache_stats, obs = decode(buffer)
        if not decoded and entries:
            entries = entries[1:]
        decoded.append(len(entries))
        return entries, cache_stats, obs

    monkeypatch.setattr(sharding, "decode_shard_payload_obs", drop_first_entry_once)
    fresh = _build(20_000)
    pooled = _build(20_000)
    week = fresh.config.reference_week
    kwargs = dict(populations=("cno",))
    with ShmPoolScanEngine(pooled, workers=2) as engine:
        with pytest.raises(ShardResultMissing):
            engine.run_week(week, **kwargs)
        run = engine.run_week(week, **kwargs)
    assert_runs_equal(fresh.scan_engine().run_week(week, **kwargs), run, leg="re-dispatched")
    assert fresh.clock.now == pooled.clock.now
    assert len(decoded) > 2  # the second run decoded fresh buffers


@requires_fork
def test_workers_never_build_a_plan(tmp_path, monkeypatch):
    """The parent plans and schedules once; workers only execute the
    events their tickets carry."""
    log = tmp_path / "plan-builds"
    build_plan = ScanEngine._build_plan

    def recording_build_plan(self, *args):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return build_plan(self, *args)

    monkeypatch.setattr(ScanEngine, "_build_plan", recording_build_plan)
    world = _build(MATRIX_SCALE)
    run_campaign(world, weeks=_weeks(world), workers=2)
    assert log.read_text().split() == [str(os.getpid())]


# ----------------------------------------------------------------------
# Kill-and-resume under worker crash
# ----------------------------------------------------------------------
@requires_fork
@pytest.mark.parametrize("resume_workers", [3])
def test_worker_kill_and_resume_matches_uninterrupted(tmp_path, campaign_legs, resume_workers):
    """Crash a pool worker mid-campaign, abort the campaign one week
    later, then resume from the checkpoints under a *different* worker
    count: still the uninterrupted result."""
    world = campaign_world()
    plan = (
        FaultPlan(seed=11)
        .crash_worker(shard=0, week=CAMPAIGN_WEEKS[0])
        .abort_campaign_after(CAMPAIGN_WEEKS[1])
    )
    with ShmPoolScanEngine(world, workers=2, fault_plan=plan, shard_timeout=0.5) as engine:
        with pytest.raises(InjectedFault):
            run_canonical_campaign(
                world, engine=engine, checkpoint_dir=tmp_path, fault_plan=plan
            )
    # The killed worker surfaced as a lost-ticket timeout and a retry
    # recovered it before the abort fired.
    assert engine.supervision.timeouts >= 1
    assert engine.supervision.retries >= 1
    resumed_world = campaign_world()
    resumed = run_canonical_campaign(
        resumed_world, workers=resume_workers, checkpoint_dir=tmp_path, resume=True
    )
    assert_campaign_matches(
        campaign_legs.oracle, resumed_world, resumed, leg="resumed after a worker kill"
    )


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
    # the float is part of the world config the checkpoint key digests.
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
    assert_legs_equal(
        record_campaign("fresh pool", fresh_world, fresh),
        record_campaign("resumed from legacy checkpoints", world, resumed),
    )


# ----------------------------------------------------------------------
# Ticket tiling + merge properties
# ----------------------------------------------------------------------
_week_st = st.builds(Week, st.integers(2020, 2026), st.integers(1, 52))


_weights_st = st.one_of(
    st.lists(st.integers(0, 40), max_size=120),
    st.lists(st.just(0), max_size=120),  # no scheduled work at all
    # Work clustered on the first sites, as the world lays them out.
    st.integers(0, 120).flatmap(
        lambda n: st.lists(st.integers(1, 40), max_size=n).map(
            lambda head: head + [0] * (n - len(head))
        )
    ),
)


@settings(max_examples=120, deadline=None)
@given(
    weights=_weights_st,
    weeks=st.lists(_week_st, max_size=6, unique=True),
    workers=st.integers(1, 9),
)
def test_tickets_tile_every_cell_exactly_once(weights, weeks, workers):
    """Tickets are contiguous site ranges in order, at most one per
    worker, cover every (site, week) cell once — sites without events
    included — and none weighs more than its share plus one site."""
    tickets = plan_tickets(weights, weeks, tickets=workers)
    assert [t.index for t in tickets] == list(range(len(tickets)))
    assert len(tickets) <= workers
    assert [t.site_lo for t in tickets[1:]] == [t.site_hi for t in tickets[:-1]]
    if weights:
        assert (tickets[0].site_lo, tickets[-1].site_hi) == (0, len(weights))
    covered = {}
    for ticket in tickets:
        assert 0 <= ticket.site_lo < ticket.site_hi <= len(weights)
        assert ticket.weeks == tuple(weeks)
        for site in range(ticket.site_lo, ticket.site_hi):
            for week in ticket.weeks:
                cell = (site, week)
                assert cell not in covered, f"cell {cell} covered twice"
                covered[cell] = ticket.index
    assert len(covered) == len(weights) * len(weeks)
    total = sum(weights)
    if total:
        bound = -(-total // workers) + max(weights)
        assert max(sum(weights[t.site_lo:t.site_hi]) for t in tickets) <= bound
    elif weights:
        # No scheduled work: equal site counts, one ticket per worker.
        sizes = [t.site_hi - t.site_lo for t in tickets]
        assert len(tickets) == min(workers, len(weights))
        assert max(sizes) - min(sizes) <= 1


@settings(max_examples=40, deadline=None)
@given(
    weights=_weights_st.filter(bool),
    weeks=st.lists(_week_st, min_size=1, max_size=4, unique=True),
    workers=st.integers(1, 9),
    data=st.data(),
)
def test_ticket_merge_is_order_independent(weights, weeks, workers, data):
    """Workers compute a pure function of the cell, and tickets never
    overlap — so harvesting them in any completion order merges to the
    same result."""
    tickets = plan_tickets(weights, weeks, tickets=workers)

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


@settings(max_examples=60, deadline=None)
@given(
    site_count=st.integers(1, 80),
    weeks=st.lists(_week_st, min_size=1, max_size=4, unique=True),
    workers=st.integers(1, 9),
    data=st.data(),
)
def test_slicing_puts_every_event_in_one_ticket_week(site_count, weeks, workers, data):
    """Every scheduled event lands in exactly one ticket-week whose site
    range contains it, and each ticket keeps the schedule's order."""
    cells = st.tuples(st.integers(0, site_count - 1), st.integers(0, 3))
    schedule = [
        [
            SiteEvent(position, kind, site, f"10.0.{site}.1", f"d{position}.example")
            for position, (site, kind) in enumerate(
                data.draw(st.lists(cells, max_size=40))
            )
        ]
        for _ in weeks
    ]
    weights = [0] * site_count
    for events in schedule:
        for event in events:
            weights[event.site_index] += 1
    tickets = slice_schedule(plan_tickets(weights, weeks, tickets=workers), schedule)
    for week_index, events in enumerate(schedule):
        placed = []
        for ticket in tickets:
            positions = [event[0] for event in ticket.events[week_index]]
            assert positions == sorted(positions)  # schedule order
            for event in ticket.events[week_index]:
                assert ticket.site_lo <= event[2] < ticket.site_hi
                assert SiteEvent(*event) == events[event[0]]
            placed.extend(positions)
        assert sorted(placed) == list(range(len(events)))


def test_plan_tickets_validates_arguments():
    week = Week(2023, 15)
    with pytest.raises(ValueError, match="tickets"):
        plan_tickets([1, 2], [week], tickets=0)
    assert plan_tickets([], [week], tickets=4) == []
    # Weeks only ride along: the site layout depends on the weights.
    assert [
        (t.site_lo, t.site_hi, t.weeks) for t in plan_tickets([0, 0, 0], [], tickets=2)
    ] == [(0, 2, ()), (2, 3, ())]
    # Work on the last site alone: one ticket holds every site.
    assert [
        (t.site_lo, t.site_hi) for t in plan_tickets([0, 0, 5], [week], tickets=2)
    ] == [(0, 3)]


def _recording_submit(monkeypatch):
    """Record every ticket the pool engine submits to its workers."""
    submitted = []
    submit = ShmPoolScanEngine._submit

    def recording_submit(self, pool, ticket, spec, attempt):
        submitted.append(ticket)
        return submit(self, pool, ticket, spec, attempt)

    monkeypatch.setattr(ShmPoolScanEngine, "_submit", recording_submit)
    return submitted


@requires_fork
def test_two_worker_campaign_gives_both_tickets_quic_work(monkeypatch):
    """The world lays out sites provider by provider, so every
    QUIC-serving site has a low index; tickets cut by scheduled work
    still give both workers QUIC exchanges, in near-equal shares."""
    submitted = _recording_submit(monkeypatch)
    world = _build(MATRIX_SCALE)
    run_campaign(world, weeks=_weeks(world), workers=2)
    assert [ticket.index for ticket in submitted] == [0, 1]
    quic = [
        sum(event[1] == QUIC_EVENT for events in ticket.events for event in events)
        for ticket in submitted
    ]
    assert all(quic), f"QUIC events per ticket: {quic}"
    work = [sum(map(len, ticket.events)) for ticket in submitted]
    assert max(work) - min(work) <= max(work) // 4, f"events per ticket: {work}"


@requires_fork
def test_missing_entries_name_the_ticket_that_owned_them(monkeypatch):
    """ShardResultMissing names, per absent entry, the dispatched ticket
    whose site range held it."""
    from repro.pipeline import sharding
    from repro.pipeline.engine import ShardResultMissing

    submitted = _recording_submit(monkeypatch)
    decode = sharding.decode_shard_payload_obs

    def drop_first_entry(buffer):
        entries, cache_stats, obs = decode(buffer)
        return entries[1:], cache_stats, obs

    monkeypatch.setattr(sharding, "decode_shard_payload_obs", drop_first_entry)
    world = _build(MATRIX_SCALE)
    with ShmPoolScanEngine(world, workers=2) as engine:
        with pytest.raises(ShardResultMissing) as excinfo:
            engine.run_week(world.config.reference_week, populations=("cno",))
    assert len(submitted) == 2
    message = str(excinfo.value)
    for ticket in submitted:
        site_index = ticket.events[0][0][2]
        assert f"(site {site_index}, quic, shard {ticket.index})" in message


# ----------------------------------------------------------------------
# Pool lifecycle: no worker outlives close()
# ----------------------------------------------------------------------
@requires_fork
def test_clean_campaign_leaves_no_worker():
    world = _build(MATRIX_SCALE)
    run_campaign(world, weeks=_weeks(world)[:2], workers=2)
    assert multiprocessing.active_children() == []


@requires_fork
def test_worker_crash_leaves_no_worker(campaign_legs):
    """A worker killed mid-campaign on a pool ``run_campaign`` builds:
    the retried campaign still equals the oracle, and neither the dead
    worker nor its replacement outlives the campaign."""
    world = campaign_world()
    plan = FaultPlan(seed=7).crash_worker(shard=0, week=CAMPAIGN_WEEKS[0])
    telemetry = Telemetry()
    campaign = run_canonical_campaign(
        world, workers=2, fault_plan=plan, shard_timeout=0.5, telemetry=telemetry
    )
    assert_campaign_matches(campaign_legs.oracle, world, campaign, leg="crashed worker")
    assert telemetry.registry.value("campaign.supervision.retries") >= 1
    assert multiprocessing.active_children() == []


@requires_fork
def test_aborted_campaign_leaves_no_worker():
    world = _build(MATRIX_SCALE)
    weeks = _weeks(world)[:2]
    plan = FaultPlan().abort_campaign_after(weeks[0])
    with pytest.raises(InjectedFault):
        run_campaign(world, weeks=weeks, workers=2, fault_plan=plan)
    assert multiprocessing.active_children() == []


@requires_fork
def test_engine_close_is_idempotent():
    world = _build(MATRIX_SCALE)
    engine = ShmPoolScanEngine(world, workers=1)
    week = world.config.reference_week
    # One site range per worker: the week is one prefetched ticket.
    assert engine.prefetch_weeks([week], populations=("cno",)) == 1
    engine.run_week(week, populations=("cno",))
    engine.close()
    engine.close()
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Configuration validation + CLI surface
# ----------------------------------------------------------------------
def test_campaign_pool_validation_errors():
    world = _build(400_000)
    with pytest.raises(ValueError, match="engine="):
        run_campaign(world, workers=2, engine=object())
    with pytest.raises(ValueError, match="engine="):
        run_campaign(world, engine=object(), shard_timeout=1.0)
    with pytest.raises(ValueError, match="workers"):
        run_campaign(world, max_shard_retries=1)


@requires_fork
def test_engine_constructor_validations():
    world = _build(400_000)
    with pytest.raises(ValueError, match="workers"):
        ShmPoolScanEngine(world, workers=0)


def test_pool_engine_shares_plan_cache_with_serial_engine():
    world = _build(MATRIX_SCALE)
    plan = world.scan_engine().plan_for(4, ("cno", "toplist"))
    with ShmPoolScanEngine(world, workers=2) as engine:
        assert engine.plan_for(4, ("cno", "toplist")) is plan


@requires_fork
def test_cli_campaign_workers_runs(capsys):
    code = main(
        ["campaign", "--scale", "400000", "--workers", "3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Figure 3" in out


def test_cli_campaign_flag_conflicts(capsys, tmp_path):
    assert main(["campaign", "--shard-retries", "3"]) == 2
    assert "--shard-retries requires --workers" in capsys.readouterr().err
    # The removed fork-pool and tile-size flags are unknown options.
    for flag in ("--shards", "--shard-executor", "--ticket-sites"):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", flag, "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
