"""Span tracing: blob codec, cross-process re-parenting, trace export.

The acceptance bar for the telemetry layer: every worker ticket
span lands under its dispatching week's site-phase span — including
retried and inline-fallback executions — the Chrome trace export is
structurally valid, and instrumentation never changes results (the
instrumented leg of ``tests/differential.py`` equals the serial oracle,
report text included; the retry and fallback legs here do too).
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

import repro
from repro.faults import FaultPlan
from repro.obs import (
    Telemetry,
    Tracer,
    decode_obs_blob,
    encode_obs_blob,
    trace_events,
    write_trace,
)
from repro.obs.spans import OBS_BLOB_VERSION
from repro.pipeline import run_campaign
from repro.web.spec import WorldConfig

from tests.conftest import SMALL_SCALE, requires_fork
from tests.differential import (
    CAMPAIGN_WEEKS,
    assert_campaign_matches,
    assert_legs_equal,
    campaign_world,
    run_canonical_campaign,
)


# ----------------------------------------------------------------------
# Tracer semantics
# ----------------------------------------------------------------------
def test_begin_end_nesting_gives_implicit_parents():
    tracer = Tracer()
    outer = tracer.begin("campaign", "campaign")
    inner = tracer.begin("week", "campaign", week="2023-W15")
    assert inner.parent_id == outer.span_id
    assert tracer.current() is inner
    tracer.end(inner)
    tracer.end(outer)
    assert outer.duration >= inner.duration >= 0.0
    assert tracer.current() is None


def test_end_closes_abandoned_children():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("leaked")
    tracer.end(outer)  # closes "leaked" too
    assert all(span.duration is not None for span in tracer.spans)


def test_span_context_manager():
    tracer = Tracer()
    with tracer.span("a") as span:
        assert tracer.current() is span
    assert span.duration is not None


# ----------------------------------------------------------------------
# Worker obs blob codec
# ----------------------------------------------------------------------
def test_obs_blob_round_trip_with_typed_attrs():
    tracer = Tracer()
    with tracer.span("ticket", "worker", ticket=3, attempt=-1, week="2023-W15",
                     fallback=True, fresh=False, ratio=0.25):
        pass
    blob = encode_obs_blob(tracer.spans, {"worker.exchange_cache.hits": 7})
    spans, deltas = decode_obs_blob(blob)
    assert deltas == {"worker.exchange_cache.hits": 7}
    (span,) = spans
    assert span.name == "ticket" and span.category == "worker"
    assert span.attrs == {
        "ticket": 3,
        "attempt": -1,
        "week": "2023-W15",
        "fallback": True,
        "fresh": False,
        "ratio": 0.25,
    }
    assert span.start == tracer.spans[0].start
    assert span.duration == tracer.spans[0].duration
    assert span.pid == tracer.pid


def test_obs_blob_drops_open_spans():
    tracer = Tracer()
    tracer.begin("open")
    spans, _ = decode_obs_blob(encode_obs_blob(tracer.spans, {}))
    assert spans == []


def test_obs_blob_empty_and_version_check():
    assert decode_obs_blob(b"") == ([], {})
    blob = encode_obs_blob([], {})
    with pytest.raises(ValueError, match="obs blob version"):
        decode_obs_blob(bytes([OBS_BLOB_VERSION + 1]) + blob[1:])


def test_ingest_reparents_blob_roots():
    worker = Tracer()
    with worker.span("ticket", "worker"):
        with worker.span("sub", "worker"):
            pass
    blob = encode_obs_blob(worker.spans, {})
    parent = Tracer()
    site = parent.begin("site", "phase")
    adopted = parent.ingest(blob, parent.current())
    parent.end(site)
    by_name = {span.name: span for span in adopted}
    # The blob root hangs off the dispatching span; internal structure
    # survives with remapped ids.
    assert by_name["ticket"].parent_id == site.span_id
    assert by_name["sub"].parent_id == by_name["ticket"].span_id
    ids = [span.span_id for span in parent.spans]
    assert len(ids) == len(set(ids))


# ----------------------------------------------------------------------
# Chrome trace-event export validity
# ----------------------------------------------------------------------
def _assert_valid_trace_document(document):
    events = document["traceEvents"]
    assert events, "trace must not be empty"
    ids = set()
    for event in events:
        assert event["ph"] == "X"
        assert event["ts"] >= 0
        assert event["dur"] >= 0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert isinstance(event["name"], str) and event["name"]
        assert isinstance(event["cat"], str) and event["cat"]
        ids.add(event["args"]["span_id"])
    assert len(ids) == len(events)  # unique span ids
    for event in events:
        parent = event["args"].get("parent_id")
        assert parent is None or parent in ids  # no dangling parents
    # Normalised to the earliest span and sorted.
    assert min(event["ts"] for event in events) == 0.0
    assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
    return events


def test_trace_events_validity_and_write(tmp_path):
    tracer = Tracer()
    with tracer.span("campaign", "campaign"):
        with tracer.span("week", "campaign", week="2023-W15"):
            pass
        with tracer.span("week", "campaign", week="2023-W23"):
            pass
    tracer.begin("open")  # open span: excluded from export
    path = tmp_path / "trace.json"
    count = write_trace(path, tracer)
    document = json.loads(path.read_text())
    events = _assert_valid_trace_document(document)
    assert count == len(events) == 3
    assert document["otherData"]["producer"] == "repro.obs"


def test_trace_events_empty_tracer():
    assert trace_events([]) == []


# ----------------------------------------------------------------------
# End-to-end re-parenting of pool worker spans
# ----------------------------------------------------------------------
def _canonical_spans(campaign_legs, leg, telemetry, **kwargs):
    """Spans of a canonical campaign, checked against the oracle."""
    world = campaign_world()
    campaign = run_canonical_campaign(world, telemetry=telemetry, **kwargs)
    assert_campaign_matches(campaign_legs.oracle, world, campaign, leg=leg)
    return _finished_spans(telemetry)


def _finished_spans(telemetry):
    spans = telemetry.tracer.finished_spans()
    assert spans and all(span.duration is not None for span in spans)
    return spans


def _assert_worker_spans_under_their_week(spans, *, expect_workers=True):
    """Every worker span hangs off the site phase of its own week."""
    by_id = {span.span_id: span for span in spans}
    workers = [span for span in spans if span.category == "worker"]
    if expect_workers:
        assert workers, "expected shipped worker spans"
    for span in workers:
        parent = by_id[span.parent_id]
        assert parent.category == "phase" and parent.name == "site"
        assert parent.attrs["week"] == span.attrs["week"]
        grandparent = by_id[parent.parent_id]
        assert grandparent.name == "week"
        assert grandparent.attrs["week"] == span.attrs["week"]
    return workers


@requires_fork
def test_forkpool_worker_spans_reparent_under_week(campaign_legs):
    """A caller-built pool (the instrumented leg): every forked worker
    records one span per ticket-week, filed under the week it computed,
    one per site range."""
    telemetry = campaign_legs["instrumented"].telemetry
    workers = _assert_worker_spans_under_their_week(_finished_spans(telemetry))
    # Worker spans recorded in worker processes: not the parent's pid.
    assert telemetry.tracer.pid not in {span.pid for span in workers}
    assert all(span.name == "ticket" for span in workers)
    assert all(span.attrs["attempt"] == 0 for span in workers)
    assert Counter(span.attrs["week"] for span in workers) == {
        str(week): 2 for week in CAMPAIGN_WEEKS
    }
    # Worker-side cache counters shipped through the blob trailer.
    assert telemetry.registry.value("worker.exchange_cache.misses") > 0


@requires_fork
def test_shm_pool_worker_spans_reparent_under_week(campaign_legs):
    """A pool that ``run_campaign`` builds itself, telemetry passed in."""
    telemetry = Telemetry()
    spans = _canonical_spans(campaign_legs, "instrumented campaign pool", telemetry, workers=2)
    workers = _assert_worker_spans_under_their_week(spans)
    assert all(span.name == "ticket" for span in workers)
    # Worker spans recorded in worker processes: different pid.
    assert {span.pid for span in workers} != {telemetry.tracer.pid}
    assert telemetry.registry.value("worker.exchange_cache.misses") > 0
    # Multi-week tickets are harvested inside one week's site phase but
    # must still split per week: every campaign week has its own
    # ticket spans.
    assert {span.attrs["week"] for span in workers} == {str(week) for week in CAMPAIGN_WEEKS}


@requires_fork
def test_retried_shard_spans_tag_attempt(campaign_legs):
    plan = FaultPlan(seed=5).crash_worker(shard=1, week=CAMPAIGN_WEEKS[0])
    telemetry = Telemetry()
    spans = _canonical_spans(
        campaign_legs, "retried", telemetry, workers=2, fault_plan=plan, shard_timeout=0.5
    )
    workers = _assert_worker_spans_under_their_week(spans)
    retried = [span for span in workers if span.attrs["attempt"] > 0]
    assert retried, "expected a retried ticket span tagged attempt>0"
    assert all(not span.attrs.get("fallback") for span in retried)
    assert telemetry.registry.value("campaign.supervision.retries") >= 1


@requires_fork
def test_fallback_shard_spans_tag_fallback(campaign_legs):
    # attempt=None: every pool dispatch of ticket 1 returns a corrupt
    # buffer, so supervision re-executes it inline in the parent.
    plan = FaultPlan(seed=6).corrupt_shard_buffer(
        shard=1, week=CAMPAIGN_WEEKS[0], attempt=None
    )
    telemetry = Telemetry()
    spans = _canonical_spans(
        campaign_legs, "fallback", telemetry, workers=2, fault_plan=plan, max_shard_retries=1
    )
    workers = _assert_worker_spans_under_their_week(spans)
    fallbacks = [span for span in workers if span.attrs.get("fallback")]
    assert fallbacks, "expected an inline-fallback span tagged fallback=True"
    assert {span.attrs["ticket"] for span in fallbacks} == {1}
    # Inline fallback runs in the parent process.
    parent_pid = telemetry.tracer.pid
    assert all(span.pid == parent_pid for span in fallbacks)
    assert telemetry.registry.value("campaign.supervision.failures") == 2
    assert telemetry.registry.value("campaign.supervision.fallbacks") == 1


@requires_fork
def test_shm_pool_fallback_ticket_spans_tag_fallback(campaign_legs):
    """A ticket whose worker crashes on every dispatch falls back inline
    after its timeouts; the fallback spans still land under their week."""
    plan = FaultPlan(seed=8).crash_worker(shard=0, week=CAMPAIGN_WEEKS[0], attempt=None)
    telemetry = Telemetry()
    spans = _canonical_spans(
        campaign_legs,
        "crash fallback",
        telemetry,
        workers=2,
        fault_plan=plan,
        shard_timeout=0.5,
        max_shard_retries=1,
    )
    workers = _assert_worker_spans_under_their_week(spans)
    fallbacks = [span for span in workers if span.attrs.get("fallback")]
    assert fallbacks, "expected inline-fallback ticket spans"
    assert {span.attrs["week"] for span in fallbacks} <= {str(w) for w in CAMPAIGN_WEEKS}
    # Inline fallback runs in the parent process.
    parent_pid = telemetry.tracer.pid
    assert all(span.pid == parent_pid for span in fallbacks)
    assert telemetry.registry.value("campaign.supervision.fallbacks") >= 1


def test_inline_campaign_trace_is_exportable(tmp_path):
    """The serial engine's span tree exports as a valid Chrome trace."""
    world = repro.build_world(WorldConfig(scale=SMALL_SCALE))
    telemetry = Telemetry()
    config = world.config
    weeks = [config.start_week, config.start_week + 8, config.reference_week]
    run_campaign(world, weeks=weeks, telemetry=telemetry)
    _finished_spans(telemetry)
    path = tmp_path / "trace.json"
    write_trace(path, telemetry.tracer)
    events = _assert_valid_trace_document(json.loads(path.read_text()))
    names = {(event["cat"], event["name"]) for event in events}
    assert ("campaign", "campaign") in names
    assert ("campaign", "week") in names
    assert ("phase", "site") in names
    assert ("phase", "attribution") in names


# ----------------------------------------------------------------------
# Golden: instrumentation never changes results
# ----------------------------------------------------------------------
@requires_fork
def test_instrumented_campaign_is_byte_identical(campaign_legs):
    """The instrumented 2-worker pool leg equals the uninstrumented
    serial oracle: every run, the world clock and the report."""
    assert_legs_equal(campaign_legs.oracle, campaign_legs["instrumented"])
