"""Replay cache golden equivalence: cached runs == fresh runs, byte for byte.

The exchange replay cache's contract is that caching is invisible: a
run that replays cached outcomes serves exactly the observations, site
records, traces, plugin rows, reports and shared-clock trajectory a
cache-disabled run produces.  The ``uncached`` legs of the differential
harness (``tests/differential.py``) are those cache-disabled runs: the
week matrix's (every vantage x v4+TCP/v4 with tracebox/v6) and the
canonical campaign's.  Both oracles really replay: the matrix oracle
shares one cache across cases and weeks, the campaign oracle across
three weeks.  Pool workers' caches are held to the same line: the
campaign's pool legs, cached on every worker, equal its ``uncached``
serial leg.
"""

from __future__ import annotations

import pytest

from tests.conftest import requires_fork
from tests.differential import assert_legs_equal


def test_cached_matches_fresh_for_every_vantage_family_and_tcp(week_matrix):
    oracle = week_matrix.oracle
    assert_legs_equal(oracle, week_matrix["uncached"])
    hits, misses, uncacheable = oracle.cache_stats
    assert hits > 0 and misses > 0  # the cached side really replayed
    assert uncacheable == 0  # every calibrated route is draw-free
    assert week_matrix["uncached"].cache_stats is None  # no cache at all


def test_cached_run_with_tracebox_matches_fresh(week_matrix):
    """The matrix's v4 family runs tracebox, and only it; the v4+TCP
    family is the only one with TCP records."""
    oracle, uncached = week_matrix.oracle, week_matrix["uncached"]
    for run, fresh in zip(oracle.runs, uncached.runs, strict=True):
        family = run.label.rsplit(" ", 1)[1]
        assert bool(run.traces) == (family == "v4"), run.label
        assert fresh.traces == run.traces, run.label
        has_tcp = any(tcp is not None for _, _, tcp in run.site_records.values())
        assert has_tcp == (family == "v4+TCP"), run.label


def test_replay_returns_identical_result_objects_across_weeks(campaign_legs):
    """Hits share the recorded result object: replay, not recompute."""
    first, *later = campaign_legs.oracle.runs
    shared = [
        index
        for run in later
        for index, (_, quic, _) in run.site_records.items()
        if quic is not None
        and index in first.site_records
        and first.site_records[index][1] is quic
    ]
    assert shared
    assert campaign_legs.oracle.stats.exchange_cache_hits >= len(shared)


def test_campaign_cached_matches_uncached_and_analysis_identical(campaign_legs):
    oracle, uncached = campaign_legs.oracle, campaign_legs["uncached"]
    assert_legs_equal(oracle, uncached)
    assert oracle.stats.exchange_cache_hits > 0
    assert oracle.stats.exchange_cache_uncacheable == 0
    assert (uncached.stats.exchange_cache_hits, uncached.stats.exchange_cache_misses) == (0, 0)


# ----------------------------------------------------------------------
# Pool workers' caches: cached pool legs == the fresh serial leg
# ----------------------------------------------------------------------
@requires_fork
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_cached_matches_fresh_serial(campaign_legs, shards):
    """One site range per worker ("shard"): each worker's cache replays
    its sites' later weeks, and the merge equals a cache-free run."""
    pooled = campaign_legs.pool(shards)
    assert_legs_equal(campaign_legs["uncached"], pooled)
    assert pooled.stats.exchange_cache_hits > 0


@requires_fork
def test_sharded_cached_invariant_under_worker_permutation(campaign_legs):
    """Many small tickets, harvested in any worker order, merge the same."""
    pooled = campaign_legs.pool(2, 7)
    assert_legs_equal(campaign_legs["uncached"], pooled)
    assert pooled.stats.exchange_cache_hits > 0


@requires_fork
def test_fork_pool_cached_matches_fresh_serial(campaign_legs):
    """A caller-built warm pool (the role the removed fork-pool executor
    played): workers replay from their caches, still golden, and their
    counters travel back through the codec trailer."""
    instrumented = campaign_legs["instrumented"]
    assert_legs_equal(campaign_legs["uncached"], instrumented)
    assert instrumented.stats.exchange_cache_hits > 0
    assert instrumented.stats.exchange_cache_misses > 0
    registry = instrumented.telemetry.registry
    assert registry.value("worker.exchange_cache.hits") > 0
    assert registry.value("worker.exchange_cache.misses") > 0
