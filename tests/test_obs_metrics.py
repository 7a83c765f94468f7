"""Metrics registry, the safe_ratio convention, and the run report codec."""

from __future__ import annotations

import json

import pytest

from repro.exchange.cache import CacheStats
from repro.obs import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    Telemetry,
    Tracer,
    load_metrics,
    safe_ratio,
    write_metrics,
)
from repro.pipeline.sharding import SupervisionStats


# ----------------------------------------------------------------------
# safe_ratio: the registry-level zero-denominator convention
# ----------------------------------------------------------------------
def test_safe_ratio_zero_denominator_is_zero():
    assert safe_ratio(0, 0) == 0.0
    assert safe_ratio(17, 0) == 0.0
    assert safe_ratio(0.0, 0.0) == 0.0


def test_safe_ratio_normal_division():
    assert safe_ratio(3, 4) == 0.75
    assert safe_ratio(0, 5) == 0.0


def test_cache_stats_hit_rate_follows_the_convention():
    # Zero attempts: defined as 0.0, never ZeroDivisionError.
    assert CacheStats().hit_rate == 0.0
    stats = CacheStats(hits=3, misses=1)
    assert stats.hit_rate == 0.75


def test_registry_ratio_zero_denominator_is_zero():
    registry = MetricsRegistry()
    ratio = registry.ratio("x.rate", "x.hits", "x.attempts")
    assert ratio.value == 0.0  # both counters exist but are zero
    registry.counter("x.hits").inc(2)
    registry.counter("x.attempts").inc(8)
    assert ratio.value == 0.25


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------
def test_registry_returns_one_instrument_per_name():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    registry.counter("a").inc(3)
    registry.counter("a").inc(2)
    assert registry.value("a") == 5


def test_registry_rejects_kind_mismatch():
    registry = MetricsRegistry()
    registry.counter("a")
    with pytest.raises(TypeError, match="already registered as counter"):
        registry.gauge("a")
    with pytest.raises(TypeError, match="not ratio"):
        registry.ratio("a", "n", "d")


def test_registry_histogram_summary():
    registry = MetricsRegistry()
    for value in (1.0, 3.0, 2.0):
        registry.observe("h", value)
    hist = registry.get("h")
    assert hist.count == 3
    assert hist.total == 6.0
    assert hist.min == 1.0
    assert hist.max == 3.0
    assert hist.mean == 2.0
    assert registry.value("h") == 6.0  # histogram scalar = total


def test_counter_deltas_round_trip():
    registry = MetricsRegistry()
    registry.counter("a").inc(4)
    registry.gauge("g").set(9.0)  # non-counters never appear in deltas
    baseline = registry.counter_deltas()
    assert baseline == {"a": 4}
    registry.counter("a").inc(1)
    registry.counter("b").inc(2)
    deltas = registry.counter_deltas(baseline)
    assert deltas == {"a": 1, "b": 2}
    other = MetricsRegistry()
    other.apply_counter_deltas(deltas)
    assert other.value("a") == 1 and other.value("b") == 2


def test_supervision_stats_publish_names():
    registry = MetricsRegistry()
    SupervisionStats(retries=1, timeouts=2, failures=3, fallbacks=4).publish(registry)
    assert registry.value("campaign.supervision.retries") == 1
    assert registry.value("campaign.supervision.timeouts") == 2
    assert registry.value("campaign.supervision.failures") == 3
    assert registry.value("campaign.supervision.fallbacks") == 4


# ----------------------------------------------------------------------
# Run report round-trip (schema-versioned decode)
# ----------------------------------------------------------------------
def _sample_telemetry() -> Telemetry:
    telemetry = Telemetry()
    telemetry.registry.counter("campaign.weeks").inc(3)
    telemetry.registry.gauge("campaign.phase.site_seconds").set(0.5)
    telemetry.registry.observe("world.snapshot.decode_seconds", 0.1)
    telemetry.registry.ratio(
        "campaign.exchange_cache.hit_rate",
        "campaign.exchange_cache.hits",
        "campaign.exchange_cache.attempts",
    )
    with telemetry.tracer.span("campaign", "campaign"):
        with telemetry.tracer.span("week", "campaign", week="2023-W15"):
            pass
    return telemetry


def test_metrics_json_round_trip(tmp_path):
    telemetry = _sample_telemetry()
    path = tmp_path / "metrics.json"
    written = write_metrics(path, telemetry.registry, telemetry.tracer)
    loaded = load_metrics(path)
    assert loaded == written
    assert loaded["metrics"]["campaign.weeks"] == {"kind": "counter", "value": 3}
    assert loaded["metrics"]["campaign.exchange_cache.hit_rate"]["kind"] == "ratio"
    assert loaded["spans"]["campaign.week"]["count"] == 1
    # The tree is flat and sorted: stable diffs across runs.
    assert list(loaded["metrics"]) == sorted(loaded["metrics"])


def test_load_metrics_rejects_wrong_schema(tmp_path):
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps({"schema": "someone.else", "version": 1}))
    with pytest.raises(ValueError, match="not a repro metrics report"):
        load_metrics(path)


def test_load_metrics_rejects_wrong_version(tmp_path):
    telemetry = _sample_telemetry()
    path = tmp_path / "metrics.json"
    document = write_metrics(path, telemetry.registry, telemetry.tracer)
    document["version"] = METRICS_SCHEMA_VERSION + 1
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError, match="unsupported metrics schema version"):
        load_metrics(path)


def test_tracer_is_optional_in_report(tmp_path):
    registry = MetricsRegistry()
    registry.counter("a").inc()
    path = tmp_path / "metrics.json"
    write_metrics(path, registry)
    assert load_metrics(path)["spans"] == {}


def test_empty_tracer_yields_empty_summary(tmp_path):
    path = tmp_path / "metrics.json"
    write_metrics(path, MetricsRegistry(), Tracer())
    loaded = load_metrics(path)
    assert loaded["metrics"] == {} and loaded["spans"] == {}
