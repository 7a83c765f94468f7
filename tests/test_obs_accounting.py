"""Run accounting: each registry number has one publisher and adds up.

A week publishes its own numbers (``ScanEngine.run_week``): the
durations of its ``site`` span and of its ``attribution``/``plugin``
spans, and its exchange-cache delta.  A campaign adds its weeks,
domains and pool supervision delta; the CLI's stderr notes read the
registry that ``--metrics-out`` writes.  So every exchange a run
schedules is counted once (``attempts + uncacheable`` equals the
scheduled events), the phase gauges equal their spans, and a scan of
two families adds both legs.
"""

from __future__ import annotations

import json
import re

import pytest

import repro
from repro.cli import main
from repro.obs import Telemetry, load_metrics
from repro.web.spec import WorldConfig

from tests.conftest import requires_fork
from tests.differential import CAMPAIGN_PLUGINS, CAMPAIGN_WEEKS, campaign_world

#: World of the CLI runs (what ``test_cli_report`` drives too).
CLI_SCALE = 20_000

_NOTE = re.compile(
    r"exchange cache: (\d+) hits / (\d+) misses / (\d+) uncacheable "
    r"\(([\d.]+)% hit rate\)"
)


def _counts(registry) -> tuple[int, int, int, int]:
    return tuple(
        int(registry.value(f"campaign.exchange_cache.{name}"))
        for name in ("hits", "misses", "uncacheable", "attempts")
    )


def _span_seconds(spans, *names: str) -> float:
    return sum(span.duration for span in spans if span.name in names)


def _metric_values(metrics: dict, prefix: str) -> dict[str, object]:
    return {name: entry["value"] for name, entry in metrics.items() if name.startswith(prefix)}


def test_weekly_scan_publishes_its_phases_and_cache_counters():
    world = repro.build_world(WorldConfig(scale=CLI_SCALE))
    cache = world.scan_engine().exchange_cache
    base = cache.stats.snapshot()
    telemetry = Telemetry()
    repro.run_weekly_scan(world, world.config.reference_week, telemetry=telemetry)
    registry = telemetry.registry
    for name in (
        "campaign.phase.site_seconds",
        "campaign.phase.attribution_seconds",
        "campaign.exchange_cache.hits",
        "campaign.exchange_cache.attempts",
        "campaign.exchange_cache.hit_rate",
    ):
        assert name in registry, name
    hits, misses, uncacheable = (
        now - was for now, was in zip(cache.stats.snapshot(), base, strict=True)
    )
    assert hits and misses
    assert _counts(registry) == (hits, misses, uncacheable, hits + misses)
    assert registry.value("campaign.exchange_cache.hit_rate") == hits / (hits + misses)
    spans = telemetry.tracer.finished_spans()
    assert registry.value("campaign.phase.site_seconds") == _span_seconds(spans, "site") > 0


@pytest.fixture(scope="module")
def campaign_events() -> int:
    """Site events the canonical campaign schedules over its weeks."""
    engine = campaign_world().scan_engine()
    return sum(
        len(engine.site_events(week, populations=("cno",), plugins=CAMPAIGN_PLUGINS))
        for week in CAMPAIGN_WEEKS
    )


@pytest.mark.parametrize(
    "leg",
    [
        "rehydrated",
        pytest.param("instrumented", marks=requires_fork),
        pytest.param("pool-2", marks=requires_fork),
    ],
)
def test_campaign_counts_every_scheduled_exchange_once(campaign_legs, campaign_events, leg):
    """Serial, a caller-built pool and a pool ``run_campaign`` builds:
    the weeks' cache deltas cover each scheduled event exactly once,
    workers' counters included, and the phase gauges are the spans'."""
    telemetry = (campaign_legs.pool(2) if leg == "pool-2" else campaign_legs[leg]).telemetry
    registry = telemetry.registry
    hits, misses, uncacheable, attempts = _counts(registry)
    assert attempts == hits + misses > 0
    assert attempts + uncacheable == campaign_events
    assert registry.value("campaign.weeks") == len(CAMPAIGN_WEEKS)
    spans = telemetry.tracer.finished_spans()
    assert registry.value("campaign.phase.site_seconds") == _span_seconds(spans, "site")
    assert registry.value("campaign.phase.attribution_seconds") == pytest.approx(
        _span_seconds(spans, "attribution", "plugin")
    )


def test_ipv6_scan_accumulates_both_legs(tmp_path, capsys):
    metrics_path, trace_path = tmp_path / "metrics.json", tmp_path / "trace.json"
    args = ["scan", "--scale", str(CLI_SCALE), "--ipv6", "--no-plugins", "--quiet"]
    code = main([*args, "--metrics-out", str(metrics_path), "--trace-out", str(trace_path)])
    assert code == 0
    capsys.readouterr()
    metrics = _metric_values(load_metrics(metrics_path)["metrics"], "campaign.")
    world = repro.build_world(WorldConfig(scale=CLI_SCALE))
    engine = world.scan_engine()
    v4 = engine.site_events(world.config.reference_week, plugins=("ecn",))
    v6 = engine.site_events(
        world.config.ipv6_week, ip_version=6, populations=("cno",), plugins=("ecn",)
    )
    assert v4 and v6
    uncacheable = metrics.get("campaign.exchange_cache.uncacheable", 0)
    assert metrics["campaign.exchange_cache.attempts"] + uncacheable == len(v4) + len(v6)
    sites = [
        event["dur"]
        for event in json.loads(trace_path.read_text())["traceEvents"]
        if event["name"] == "site"
    ]
    assert len(sites) == 2
    # The trace rounds each duration to a nanosecond.
    assert metrics["campaign.phase.site_seconds"] == pytest.approx(sum(sites) / 1e6, abs=1e-8)
    assert metrics["campaign.phase.analysis_seconds"] > 0


@pytest.mark.parametrize(
    "workers",
    [
        pytest.param([], id="serial"),
        pytest.param(["--workers", "2"], id="pool-2", marks=requires_fork),
    ],
)
def test_campaign_stderr_note_is_the_metrics_report(tmp_path, capsys, workers):
    metrics_path = tmp_path / "metrics.json"
    args = ["campaign", "--scale", str(CLI_SCALE), "--cadence", "26", *workers]
    code = main([*args, "--metrics-out", str(metrics_path)])
    assert code == 0
    note = _NOTE.search(capsys.readouterr().err)
    assert note is not None
    metrics = _metric_values(load_metrics(metrics_path)["metrics"], "campaign.exchange_cache.")
    hits, misses, uncacheable = (int(group) for group in note.groups()[:3])
    assert (hits, misses, uncacheable) == (
        metrics["campaign.exchange_cache.hits"],
        metrics["campaign.exchange_cache.misses"],
        metrics.get("campaign.exchange_cache.uncacheable", 0),
    )
    assert note.group(4) == f"{100 * metrics['campaign.exchange_cache.hit_rate']:.1f}"
