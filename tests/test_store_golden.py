"""Columnar store ↔ eager objects golden equivalence.

The store's contract is that the results layer is invisible: an engine
run serves exactly the fields the eager per-domain observation objects
of the reference loop (:func:`run_weekly_scan_reference`) carry — for
every vantage, both IP families, TCP+QUIC runs, the serial engine and
the shm pool at any worker count — and every analysis output built on
top is identical.  Worlds are always built in identically-seeded pairs
and driven in lockstep, so both paths see the same shared-RNG
trajectory.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.analysis import figures as fig
from repro.analysis import tables as tab
from repro.analysis.aggregate import count_by_org, distinct_ips, org_ecn_counts
from repro.analysis.report import longitudinal_report, reference_report
from repro.pipeline.campaign import Campaign, campaign_weeks
from repro.pipeline.runs import run_weekly_scan_reference
from repro.pipeline.sharding import ShmPoolScanEngine
from repro.scanner.results import DomainObservation
from repro.store.views import ObservationView, StoreObservations, StoreWeeklyRun
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
# Field-level equivalence across the full run matrix
# ----------------------------------------------------------------------
def test_store_matches_objects_for_every_vantage_family_and_tcp():
    """All vantages x v4/v6 x TCP on/off, driven in lockstep pairs."""
    world_objects = _build(MATRIX_SCALE)
    world_store = _build(MATRIX_SCALE)
    week = world_objects.config.reference_week
    cases = [
        (vantage_id, ip_version, include_tcp)
        for vantage_id in sorted(world_objects.vantages)
        for ip_version, include_tcp in ((4, True), (4, False), (6, False))
    ]
    for vantage_id, ip_version, include_tcp in cases:
        reference = run_weekly_scan_reference(
            world_objects,
            week,
            vantage_id,
            ip_version=ip_version,
            populations=("cno",),
            include_tcp=include_tcp,
        )
        run = world_store.scan_engine().run_week(
            week,
            vantage_id,
            ip_version=ip_version,
            populations=("cno",),
            include_tcp=include_tcp,
        )
        assert isinstance(run, StoreWeeklyRun)
        _assert_runs_equal(reference, run)
    assert world_objects.clock.now == world_store.clock.now


def test_store_run_with_tracebox_matches_objects():
    world_objects = _build(DEEP_SCALE)
    world_store = _build(DEEP_SCALE)
    week = world_objects.config.reference_week
    reference = run_weekly_scan_reference(
        world_objects, week, include_tcp=True, run_tracebox=True
    )
    run = world_store.scan_engine().run_week(week, include_tcp=True, plugins=("ecn", "trace"))
    _assert_runs_equal(reference, run)
    assert world_objects.clock.now == world_store.clock.now
    # Observation sequence protocol: indexing, slicing, negative index.
    assert isinstance(run.observations[0], ObservationView)
    assert run.observations[-1].domain == reference.observations[-1].domain
    tail = run.observations[-3:]
    assert [v.domain for v in tail] == [o.domain for o in reference.observations[-3:]]
    # Views materialise to equal eager observations.
    assert run.observations[0].materialize() == reference.observations[0]
    # Column-native per-run helpers agree with the object implementations.
    assert [o.domain for o in run.quic_domains()] == [
        o.domain for o in reference.quic_domains()
    ]
    for population in ("cno", "toplist"):
        assert [o.domain for o in run.observations_for(population)] == [
            o.domain for o in reference.observations_for(population)
        ]


# ----------------------------------------------------------------------
# Pool execution: workers 1/2/4, ticket tiling, cache-free workers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def per_site_run():
    """Serial per-site-RNG run — the pool's golden reference."""
    world = _build(DEEP_SCALE)
    run = world.scan_engine().run_week(
        world.config.reference_week,
        include_tcp=True,
        plugins=("ecn", "trace"),
    )
    return world, run


def _pool_run(world, **engine_kwargs):
    with ShmPoolScanEngine(world, **engine_kwargs) as engine:
        return engine.run_week(
            world.config.reference_week, include_tcp=True, plugins=("ecn", "trace")
        )


@requires_fork
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_store_matches_serial_objects(per_site_run, shards):
    world_ref, reference = per_site_run
    world = _build(DEEP_SCALE)
    run = _pool_run(world, workers=shards)
    assert isinstance(run, StoreWeeklyRun)
    _assert_runs_equal(reference, run)
    assert world_ref.clock.now == world.clock.now


@requires_fork
def test_sharded_store_invariant_under_worker_permutation(per_site_run):
    """Many small tickets, harvested in any worker order, merge the same."""
    world_ref, reference = per_site_run
    world = _build(DEEP_SCALE)
    run = _pool_run(world, workers=4, ticket_sites=9)
    _assert_runs_equal(reference, run)
    assert world_ref.clock.now == world.clock.now


@requires_fork
def test_sharded_store_fork_pool_matches(per_site_run):
    """Cache-free workers run every exchange fresh; results still golden."""
    world_ref, reference = per_site_run
    world = _build(DEEP_SCALE)
    run = _pool_run(world, workers=3, exchange_cache=False)
    _assert_runs_equal(reference, run)
    assert world_ref.clock.now == world.clock.now


# ----------------------------------------------------------------------
# Campaign level: store runs and analysis equal the reference objects
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def campaign_pair():
    world = _build(DEEP_SCALE)
    objects = Campaign()
    for week in campaign_weeks(world):
        objects.add_run(run_weekly_scan_reference(world, week, populations=("cno",)))
    store = repro.run_campaign(_build(DEEP_SCALE))
    return objects, store


def test_campaign_defaults_to_store_backend(campaign_pair):
    objects, store = campaign_pair
    assert all(isinstance(run, StoreWeeklyRun) for run in store.runs)
    assert not any(isinstance(run, StoreWeeklyRun) for run in objects.runs)
    for reference, run in zip(objects.runs, store.runs, strict=True):
        _assert_runs_equal(reference, run)


def test_campaign_analysis_outputs_identical(campaign_pair):
    objects, store = campaign_pair
    assert fig.figure3(objects) == fig.figure3(store)
    assert fig.figure4(objects) == fig.figure4(store)
    assert fig.figure8(objects) == fig.figure8(store)
    assert longitudinal_report(objects) == longitudinal_report(store)


def test_reference_analysis_outputs_identical():
    world_objects = _build(DEEP_SCALE)
    world_store = _build(DEEP_SCALE)
    week = world_objects.config.reference_week
    reference = run_weekly_scan_reference(
        world_objects, week, include_tcp=True, run_tracebox=True
    )
    run = world_store.scan_engine().run_week(week, include_tcp=True, plugins=("ecn", "trace"))
    assert tab.table1(reference) == tab.table1(run)
    assert tab.table2(reference) == tab.table2(run)
    assert tab.table3(reference) == tab.table3(run)
    assert tab.table4(reference) == tab.table4(run)
    assert tab.table5(reference) == tab.table5(run)
    assert tab.table6(reference) == tab.table6(run)
    assert tab.table7(reference) == tab.table7(run)
    assert tab.parking_summary(reference) == tab.parking_summary(run)
    assert reference_report(reference) == reference_report(run)
    # Aggregate helpers: store fast paths vs the object loops, including
    # identical (insertion-order-sensitive) Counter ordering.
    obs_ref = reference.observations_for("cno")
    obs_store = run.observations_for("cno")
    assert isinstance(obs_store, StoreObservations)
    assert org_ecn_counts(obs_ref) == org_ecn_counts(obs_store)
    ref_counts = count_by_org(obs_ref)
    store_counts = count_by_org(obs_store)
    assert ref_counts == store_counts
    assert list(ref_counts) == list(store_counts)
    assert distinct_ips(obs_ref) == distinct_ips(obs_store)
    # Predicate'd calls fall back to the view path and still agree.
    assert distinct_ips(obs_ref, predicate=lambda o: o.mirroring) == distinct_ips(
        obs_store, predicate=lambda o: o.mirroring
    )

