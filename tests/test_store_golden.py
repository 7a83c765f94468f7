"""Columnar store ↔ eager objects golden equivalence.

The store's contract is that the results layer is invisible: an engine
run serves exactly the fields the eager per-domain observation objects
of the reference loop (:func:`run_weekly_scan_reference`) carry, and
every analysis output built on top is identical.  The week matrix of
``tests/differential.py`` holds the field-level line for every vantage,
both IP families and TCP+QUIC (its ``objects`` leg, Tables 1-7 in its
report); every executor leg there serves the same store-backed runs,
and the campaign's pool legs hold the line for workers 1/2/4, small
tickets and cache-free workers.  This module also holds what is particular to the store: the views' sequence
protocol, figures and tables (first-seen dict order included) over
campaigns and runs from different plans, populations and resolver
overrides, and site-grained aggregation order.  Worlds are built in
identically-seeded pairs and driven in lockstep, so both paths see the
same shared-RNG trajectory.
"""

from __future__ import annotations

from array import array
from collections import Counter

import pytest

import repro
from repro.analysis import figures as fig
from repro.analysis import tables as tab
from repro.analysis.aggregate import org_ecn_counts
from repro.analysis.report import longitudinal_report, reference_report
from repro.core.codepoints import ECN
from repro.core.validation import ValidationOutcome
from repro.pipeline.campaign import Campaign, campaign_weeks
from repro.pipeline.runs import WeeklyRun, run_weekly_scan_reference
from repro.quic.connection import QuicConnectionResult
from repro.store.columns import NO_ROW, ObservationStore, plan_columns
from repro.store.views import ObservationView, StoreObservations, StoreWeeklyRun
from repro.tracebox.classify import ChangePoint, PathImpairment, TraceSummary
from repro.util.weeks import Week
from repro.web.paths import AS_ARELION
from repro.web.spec import WorldConfig

from tests.conftest import point_first_domain_at_last_site, requires_fork
from tests.differential import assert_legs_equal, assert_runs_equal

#: Small world for the sequence-protocol checks...
MATRIX_SCALE = 40_000
#: ...and a representative world for the deep end-to-end comparisons.
DEEP_SCALE = 12_000


def _build(scale):
    return repro.build_world(WorldConfig(scale=scale))


# ----------------------------------------------------------------------
# Field-level equivalence across the week matrix
# ----------------------------------------------------------------------
def test_store_matches_objects_for_every_vantage_family_and_tcp(week_matrix):
    """Every vantage x v4+TCP/v4 with tracebox/v6: the reference loop's
    eager objects equal the store's views, and Tables 1-7 rendered from
    each vantage's runs are identical."""
    assert_legs_equal(week_matrix.oracle, week_matrix["objects"])
    assert week_matrix.oracle.store_backed
    assert not week_matrix["objects"].store_backed


def test_store_run_with_tracebox_matches_objects():
    """One store run against its objects, through the views' sequence
    protocol and per-run helpers."""
    world_objects = _build(MATRIX_SCALE)
    world_store = _build(MATRIX_SCALE)
    week = world_objects.config.reference_week
    reference = run_weekly_scan_reference(
        world_objects, week, include_tcp=True, run_tracebox=True
    )
    run = world_store.scan_engine().run_week(week, include_tcp=True, plugins=("ecn", "trace"))
    assert isinstance(run, StoreWeeklyRun)
    assert_runs_equal(reference, run, leg="store")
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
@requires_fork
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_store_matches_serial_objects(campaign_legs, shards):
    """Each worker ("shard") records its site range into store columns
    the parent merges: store runs equal to the serial oracle."""
    pooled = campaign_legs.pool(shards)
    assert pooled.store_backed
    assert_legs_equal(campaign_legs.oracle, pooled)


@requires_fork
def test_sharded_store_invariant_under_worker_permutation(campaign_legs):
    """Many tickets on 4 workers, harvested in any order, merge the same."""
    pooled = campaign_legs.pool(4, 64)
    assert pooled.store_backed
    assert_legs_equal(campaign_legs.oracle, pooled)


@requires_fork
def test_sharded_store_fork_pool_matches(campaign_legs):
    """Cache-free workers run every exchange fresh; results still golden."""
    pooled = campaign_legs.pool(2, exchange_cache=False)
    assert pooled.store_backed
    assert_legs_equal(campaign_legs.oracle, pooled)
    assert (pooled.stats.exchange_cache_hits, pooled.stats.exchange_cache_misses) == (0, 0)


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
        assert_runs_equal(reference, run, leg="store campaign")


def _assert_figures_equal(objects, store):
    """Figures 3/4/8 equal, including the first-seen order of every dict
    (rendering iterates them, and ``render_transitions`` breaks count
    ties by insertion order)."""
    expected, actual = fig.figure3(objects), fig.figure3(store)
    assert expected == actual
    assert [list(point.mirroring_by_server) for point in expected] == [
        list(point.mirroring_by_server) for point in actual
    ]
    for build in (fig.figure4, fig.figure8):
        expected, actual = build(objects), build(store)
        assert expected == actual
        assert [list(c) for c in expected.state_counts] == [
            list(c) for c in actual.state_counts
        ]
        assert [list(f) for f in expected.flows] == [list(f) for f in actual.flows]


def test_campaign_analysis_outputs_identical(campaign_pair):
    objects, store = campaign_pair
    _assert_figures_equal(objects, store)
    assert longitudinal_report(objects) == longitudinal_report(store)


def _three_week_campaign_pair(populations_for, *, mutate=None, invalidate_at=None):
    """Object and store campaigns over three weeks (first, middle and
    last of the campaign — the figures' default snapshots), in lockstep
    worlds.

    ``populations_for(index)`` picks each run's populations (so runs can
    come from different plans); ``invalidate_at`` drops the engine's
    plans before that run; ``mutate`` is applied to both worlds first.
    """
    world_objects = _build(DEEP_SCALE)
    world_store = _build(DEEP_SCALE)
    if mutate is not None:
        mutate(world_objects)
        mutate(world_store)
    engine = world_store.scan_engine()
    objects, store = Campaign(), Campaign()
    weeks = campaign_weeks(world_objects)
    for index, week in enumerate((weeks[0], weeks[len(weeks) // 2], weeks[-1])):
        populations = populations_for(index)
        if index == invalidate_at:
            engine.invalidate()
        objects.add_run(
            run_weekly_scan_reference(world_objects, week, populations=populations)
        )
        store.add_run(engine.run_week(week, populations=populations))
    assert world_objects.clock.now == world_store.clock.now
    return objects, store


def test_mixed_plan_campaign_figures_match_objects():
    """Snapshot runs from different plans (a two-population run, then a
    re-plan after ``invalidate``) share no segments; the figures still
    equal the object path."""
    objects, store = _three_week_campaign_pair(
        lambda index: ("cno", "toplist") if index == 0 else ("cno",), invalidate_at=2
    )
    columns = [run.store.columns for run in store.runs]
    assert columns[0] is not columns[1] and columns[1] is not columns[2]
    _assert_figures_equal(objects, store)


def test_two_population_campaign_figures_match_objects():
    """Every run on one ``("cno", "toplist")`` plan: the figures read the
    plan's segments restricted to ``cno``."""
    objects, store = _three_week_campaign_pair(lambda index: ("cno", "toplist"))
    columns = store.runs[0].store.columns
    assert all(run.store.columns is columns for run in store.runs)
    assert len(columns.population_positions("cno")) < columns.count
    _assert_figures_equal(objects, store)


def test_cross_site_override_campaign_figures_match_objects():
    """A domain resolved to another site's address counts under that
    site in every figure."""
    objects, store = _three_week_campaign_pair(
        lambda index: ("cno",), mutate=point_first_domain_at_last_site
    )
    _assert_figures_equal(objects, store)


def _assert_tables_equal(reference, run):
    assert tab.table1(reference) == tab.table1(run)
    assert tab.table2(reference) == tab.table2(run)
    assert tab.table3(reference) == tab.table3(run)
    assert tab.table4(reference) == tab.table4(run)
    assert tab.table5(reference) == tab.table5(run)
    assert tab.table6(reference) == tab.table6(run)
    assert list(tab.table7(reference)) == list(tab.table7(run))
    assert tab.parking_summary(reference) == tab.parking_summary(run)
    assert reference_report(reference) == reference_report(run)
    # Per-org counts in first-seen org order, per population and over
    # every position (the unrestricted segments).
    for population in ("cno", "toplist"):
        assert list(org_ecn_counts(reference, population)) == list(
            org_ecn_counts(run, population)
        )
    assert list(org_ecn_counts(reference, None)) == list(org_ecn_counts(run, None))


def test_reference_analysis_outputs_identical():
    world_objects = _build(DEEP_SCALE)
    world_store = _build(DEEP_SCALE)
    week = world_objects.config.reference_week
    reference = run_weekly_scan_reference(
        world_objects, week, include_tcp=True, run_tracebox=True
    )
    run = world_store.scan_engine().run_week(week, include_tcp=True, plugins=("ecn", "trace"))
    _assert_tables_equal(reference, run)
    # Iterating the views agrees with the object loops, including
    # identical (insertion-order-sensitive) Counter ordering.
    obs_ref = reference.observations_for("cno")
    obs_store = run.observations_for("cno")
    assert isinstance(obs_store, StoreObservations)
    ref_counts = Counter(obs.org for obs in obs_ref)
    store_counts = Counter(obs.org for obs in obs_store)
    assert ref_counts == store_counts
    assert list(ref_counts) == list(store_counts)
    assert {obs.ip for obs in obs_ref} - {None} == {obs.ip for obs in obs_store} - {None}
    assert {obs.ip for obs in obs_ref if obs.mirroring} == {
        obs.ip for obs in obs_store if obs.mirroring
    }



def test_cross_site_override_analysis_outputs_identical():
    """Tables over a world whose resolver points a domain at another
    site's address equal the reference run's."""
    world_objects = _build(DEEP_SCALE)
    world_store = _build(DEEP_SCALE)
    point_first_domain_at_last_site(world_objects)
    point_first_domain_at_last_site(world_store)
    week = world_objects.config.reference_week
    reference = run_weekly_scan_reference(
        world_objects, week, include_tcp=True, run_tracebox=True
    )
    run = world_store.scan_engine().run_week(week, include_tcp=True, plugins=("ecn", "trace"))
    assert_runs_equal(reference, run, leg="store, cross-site override")
    _assert_tables_equal(reference, run)


# ----------------------------------------------------------------------
# Site order vs first-seen order
# ----------------------------------------------------------------------
def _synthetic_campaigns(shares, results=None, traces=None):
    """Store and object campaigns over a hand-built six-domain plan.

    Plan (position: site, population, adoption rank):
    0: site 0 cno 0.9 · 1: site 1 cno 0.4 · 2: site 0 cno 0.2 ·
    3: no site cno · 4: site 2 cno 0.3 · 5: site 1 toplist 0.05.
    Sites are in plan order 0, 1, 2, but at a share in (0.4, 0.9] the
    first attempted ``cno`` domains come in site order 1, 0, 2, so
    site-grained aggregation must re-order by first counted position to
    match the per-domain loop.  Site 1 also attempts its toplist member
    from a share of 0.05, so a ``cno`` count must not include it.
    ``results``/``traces`` replace the per-site QUIC results and attach
    per-site trace summaries to every run.
    """
    columns = plan_columns(
        {0: ([0, 2], [0.9, 0.2]), 1: ([1, 5], [0.4, 0.05]), 2: ([4], [0.3])},
        domains=[f"d{position}.com" for position in range(6)],
        populations=["cno"] * 5 + ["toplist"],
        lists=[()] * 6,
        parked=bytearray([0, 1, 0, 0, 1, 0]),
        resolved=bytearray([1, 1, 1, 0, 1, 1]),
        ips=["10.0.0.1", "10.0.0.2", "10.0.0.1", None, "10.0.0.3", "10.0.0.2"],
        orgs=["Org A", "Org B", "Org A", "<unknown>", "Org C", "Org B"],
        site_indexes=array("q", [0, 1, 0, NO_ROW, 2, 1]),
    )
    if results is None:
        results = [
            QuicConnectionResult(connected=True, mirroring=True, server_header="LiteSpeed"),
            QuicConnectionResult(connected=True, mirroring=True, server_header="Pepyaka"),
            QuicConnectionResult(connected=True, mirroring=False, server_set_ect=True),
        ]
    objects, store = Campaign(), Campaign()
    for week_number, share in enumerate(shares, start=1):
        week = Week(2023, week_number)
        recorded = ObservationStore(
            columns, week=week, vantage_id="v", ip_version=4, share=share
        )
        for index, result in enumerate(results):
            recorded.record_site(index, quic_capable=True, quic=result, tcp=None)
        run = StoreWeeklyRun(week=week, vantage_id="v", ip_version=4)
        run.attach(recorded)
        run.traces = dict(traces or {})
        store.add_run(run)
        objects.add_run(
            WeeklyRun(
                week=week,
                vantage_id="v",
                ip_version=4,
                observations=[view.materialize() for view in run.observations],
                traces=dict(traces or {}),
            )
        )
    return objects, store


@pytest.mark.parametrize("shares", [(0.25, 0.5, 1.0), (0.5, 0.25, 0.1), (0.1, 1.0, 0.25)])
def test_site_grained_analysis_keeps_first_seen_order(shares):
    objects, store = _synthetic_campaigns(shares)
    _assert_figures_equal(objects, store)
    for reference, run in zip(objects.runs, store.runs, strict=True):
        for population in ("cno", None):
            assert list(org_ecn_counts(reference, population)) == list(
                org_ecn_counts(run, population)
            )
        assert tab.table1(reference) == tab.table1(run)
        assert tab.table2(reference) == tab.table2(run)
        assert tab.table5(reference) == tab.table5(run)
        assert tab.table6(reference) == tab.table6(run)
        assert tab.parking_summary(reference) == tab.parking_summary(run)


@pytest.mark.parametrize("shares", [(0.25, 0.5, 1.0), (0.5, 0.25, 0.1), (0.1, 1.0, 0.25)])
def test_site_grained_tables_4_and_7_match_the_observation_loop(shares):
    """Tables 4 and 7 count per site on store runs; they must equal the
    per-observation loop over the materialised objects, Table 7's
    equal-domain rows in first-seen order (here sites 1, 0, 2)."""
    undercount = dict(
        connected=True, mirroring=False, validation_outcome=ValidationOutcome.UNDERCOUNT
    )
    results = [QuicConnectionResult(**undercount) for _ in range(3)]
    traces = {
        0: TraceSummary(
            PathImpairment.CLEARED,
            ECN.NOT_ECT,
            changes=(ChangePoint(ECN.ECT0, ECN.NOT_ECT, 3320, AS_ARELION),),
        ),
        1: TraceSummary(PathImpairment.REMARKED_ECT1, ECN.ECT1),
        2: TraceSummary(PathImpairment.NONE, ECN.ECT0),
    }
    objects, store = _synthetic_campaigns(shares, results=results, traces=traces)
    for reference, run in zip(objects.runs, store.runs, strict=True):
        assert tab.table4(reference) == tab.table4(run)
        assert tab.table7(reference) == tab.table7(run)
    # The tie the ordering exists for: at share 0.5 every site counts
    # one domain, and site 1's comes first.
    if 0.5 in shares:
        rows = tab.table7(store.runs[shares.index(0.5)])
        assert [row.final_codepoint for row in rows] == ["ECT(0)->ECT(1)", "Not-ECT", "ECT(0)"]
