"""Pipeline throughput: world build, weekly scan, longitudinal campaign.

Not a paper table — this pins the simulator's own performance so
regressions in the packet path and the site-first scan engine show up
in CI.  Every case also records its timing into ``BENCH_pipeline.json``
at the repo root (build time, scan time, campaign time, per-phase
split, domains/s) so the perf trajectory is tracked across PRs; every
field of that file is documented in ``docs/benchmarks.md``.

All scan/campaign cases share **one built world** (world build costs
about as much as a weekly scan, so rebuilding per case would distort
every number); ``world_build_seconds`` records the one build that
world cost.  Campaign cases record into the columnar store (the only
results layer) and record the site-phase / attribution / analysis
wall-time split.

Runs under the bench harness (pytest-benchmark) or standalone::

    PYTHONPATH=src python benchmarks/bench_pipeline_scan.py            # full, scale 8000
    PYTHONPATH=src python benchmarks/bench_pipeline_scan.py --smoke    # scale-1000 smoke
    PYTHONPATH=src python benchmarks/bench_pipeline_scan.py --smoke --check  # CI gate

``--smoke`` records ``smoke_*`` fields (scan, a serial default campaign
**and** a 2-worker pool campaign, plus the cold/warm world-cache
split); ``--check`` compares
fresh smoke numbers against
the committed baselines and exits non-zero on a >2x regression — or on
an exchange-cache hit rate below the committed
:data:`CACHE_HIT_RATE_FLOOR` (a broken replay cache re-simulates every
exchange and is caught here before it is caught as a wall-time
regression), or on a world-cache speedup below
:data:`WORLD_CACHE_SPEEDUP_FLOOR` (a broken snapshot path would fall
back to rebuilding), or on a telemetry instrumentation overhead above
:data:`OBS_OVERHEAD_MAX_PCT` (``campaign_obs_overhead_pct``, an
interleaved plain-vs-instrumented campaign comparison —
docs/observability.md).  Check runs are read-only:
``BENCH_pipeline.json`` is the single canonical perf artifact (see
``docs/benchmarks.md``) and only non-check runs rewrite it.
``--smoke --trace-out trace.json --metrics-out metrics.json``
additionally exports the instrumented smoke campaign's span trace and
metric tree (what CI uploads as artifacts).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

import repro
from repro.analysis.report import longitudinal_report
from repro.exchange.cache import CacheStats
from repro.obs import Telemetry
from repro.pipeline import ShmPoolScanEngine
from repro.web.spec import WorldConfig

SCALE = 8_000
SMOKE_SCALE = 1_000
#: CI gate: fail when a smoke case is more than this factor slower
#: than its committed ``smoke_*_seconds`` baseline.
SMOKE_REGRESSION_FACTOR = 2.0
#: CI gate: fail when the smoke campaign's exchange-cache hit rate
#: (aggregated over its best-of-3 rounds) drops below this floor.  A
#: healthy cache measures ~0.95 there (first round ~0.88 cold inside
#: one campaign, later rounds ~1.0 warm); 0.5 is far below anything a
#: working cache produces and far above the ~0.0 a broken one yields.
CACHE_HIT_RATE_FLOOR = 0.5
#: CI gate: warm world acquisition (snapshot decode) must be at least
#: this much faster than a cold build+snapshot.  Measured ~8-10x at
#: scale 1000 (a faster cold build lowers the ratio: it was ~15-19x
#: before the domain table was built in bulk); a snapshot-path
#: regression that silently falls back to rebuilding lands at ~1x and
#: fails here.
WORLD_CACHE_SPEEDUP_FLOOR = 5.0
#: CI gate: the telemetry layer (spans + metrics, docs/observability.md)
#: must cost at most this much extra campaign wall time.  Measured as
#: an interleaved best-of-N plain-vs-instrumented delta, clamped at
#: zero (scheduler noise can make the instrumented leg win).
OBS_OVERHEAD_MAX_PCT = 3.0
#: CI gate: a campaign that selects the ``ecn`` plugin explicitly must
#: cost at most this much extra shm-pool wall time over the default
#: selection — the plugin framework's dispatch must be free when only
#: the core scan is selected.  Measured exactly like the telemetry
#: overhead below: interleaved default → ecn-plugin rounds through the
#: same pool engine, best-of-N delta clamped at zero, minimum over
#: repetitions (scheduler noise only ever inflates the clamped delta).
PLUGIN_OVERHEAD_MAX_PCT = 5.0
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"

#: Throughput of the untouched seed (commit ff796bd), measured with this
#: harness at scale 8000 on the PR-2 builder — the fixed denominator of
#: the speedup columns tracked in ROADMAP.md / docs/benchmarks.md.
SEED_BASELINE = {
    "seed_scan_seconds": 0.2383,
    "seed_scan_domains_per_second": 97_612,
    "seed_campaign_seconds": 3.3522,
    "seed_campaign_domains_per_second": 88_931,
}


#: Fields no longer emitted (dropped from the file on the next record).
RETIRED_FIELDS = (
    # Superseded by the world_build_cold/warm_seconds acquisition split
    # (plain fresh-build time lives on as `build_seconds`).
    "world_build_seconds",
    # The fork-pool and inline-sharded executors were removed; the shm
    # pool (campaign_shm_pool_* / smoke_shm_pool_*) is the only pool.
    "campaign_forkpool_domains_per_second",
    "campaign_forkpool_seconds",
    "campaign_forkpool_shards",
    "campaign_shard_retries",
    "campaign_sharded_domains_per_second",
    "campaign_sharded_seconds",
    "campaign_sharded_shards",
    "smoke_forkpool_domains_per_second",
    "smoke_forkpool_retries",
    "smoke_forkpool_seconds",
    "smoke_forkpool_shards",
    # Pool workers inherit the world by fork; there is no shared
    # segment left to leak.
    "smoke_shm_pool_leaked_segments",
)


def _record(**metrics) -> None:
    """Merge metrics into BENCH_pipeline.json (one file, updated per case)."""
    data: dict = {}
    if RESULTS_PATH.exists():
        try:
            data = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            data = {}
    for field in RETIRED_FIELDS:
        data.pop(field, None)
    data.update(metrics)
    data["scale"] = SCALE
    data.update(SEED_BASELINE)
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _best_of(fn, rounds: int = 3):
    result, durations = None, []
    for _ in range(rounds):
        result, elapsed = _timed(fn)
        durations.append(elapsed)
    return result, min(durations)


# ----------------------------------------------------------------------
# Shared bench world (built once per process, reused by every case)
# ----------------------------------------------------------------------
_WORLD: "repro.World | None" = None


def _world_cache_split(scale: int) -> dict:
    """Cold vs warm world acquisition through the snapshot disk cache.

    Cold is one full miss — build, snapshot, persist; warm is a
    best-of-3 disk rehydrate (the read+decode path a fresh process pays
    with ``--world-cache``).  Also reports the snapshot size on disk.
    """
    import tempfile

    from repro.web import snapshot

    config = WorldConfig(scale=scale)
    with tempfile.TemporaryDirectory() as cache_dir:
        (cold_world, source), cold = _timed(
            lambda: snapshot.acquire_world(config, cache_dir=cache_dir)
        )
        assert source == "cold"
        warms = []
        for _ in range(3):
            (_, source), elapsed = _timed(
                lambda: snapshot.acquire_world(config, cache_dir=cache_dir)
            )
            assert source == "disk"
            warms.append(elapsed)
        size = sum(p.stat().st_size for p in Path(cache_dir).glob("world-*.ecnw"))
    # The cold-path world is a perfectly good build — callers reuse it
    # instead of building the same world again.
    return {"cold": cold, "warm": min(warms), "bytes": size, "world": cold_world}


def _shared_world() -> "repro.World":
    """The scale-8000 bench world, built once and reused across cases.

    The one build is the cold leg of the world-cache split (build +
    encode + persist), whose world every scan/campaign case then
    reuses; the warm leg and snapshot size are recorded alongside.
    Plain fresh-build time is still measured by ``bench_world_build``
    (the ``build_seconds`` field).
    """
    global _WORLD
    if _WORLD is None:
        split = _world_cache_split(SCALE)
        world = split["world"]
        # Warm the engine's attribution plans: they amortise over every
        # run against the world, so planning is not part of scan cost.
        world.scan_engine().plan_for(4, ("cno", "toplist"))
        world.scan_engine().plan_for(4, ("cno",))
        _WORLD = world
        _record(
            world_build_cold_seconds=split["cold"],
            world_build_warm_seconds=split["warm"],
            world_snapshot_bytes=split["bytes"],
        )
    return _WORLD


def _cache_since(world, base: tuple[int, int, int]) -> CacheStats:
    """The serial engine's exchange-cache counts added since ``base``."""
    now = world.scan_engine().exchange_cache.stats.snapshot()
    return CacheStats(*(a - b for a, b in zip(now, base, strict=True)))


def _campaign_with_split(world, rounds: int = 3):
    """Best-of-N serial campaign.

    Returns (campaign, best seconds, phase split, cache stats
    aggregated over *all* rounds).  The aggregate is the number the
    hit-rate gate watches: round one runs against whatever cache state
    the shared engine has, later rounds replay warm — a broken cache
    drags the aggregate towards zero regardless of round order.  The
    timed rounds run uninstrumented; the split is the registry of one
    more, instrumented round (:func:`_phase_split`).
    """
    base = world.scan_engine().exchange_cache.stats.snapshot()
    result, best = _best_of(lambda: repro.run_campaign(world), rounds)
    totals = _cache_since(world, base)
    return result, best, _phase_split(world), totals


def _phase_split(world):
    """The registry of one instrumented warm campaign: its
    ``campaign.phase.*`` gauges are the site-phase / attribution split."""
    telemetry = Telemetry()
    repro.run_campaign(world, telemetry=telemetry)
    return telemetry.registry


def _record_campaign_split(split, campaign, cache_totals: CacheStats) -> None:
    """Record the phase split, cache counters, and an analysis pass."""
    _, analysis_elapsed = _timed(lambda: longitudinal_report(campaign))
    _record(
        campaign_site_phase_seconds=split.value("campaign.phase.site_seconds"),
        campaign_attribution_seconds=split.value("campaign.phase.attribution_seconds"),
        campaign_analysis_seconds=analysis_elapsed,
        campaign_exchange_cache_hits=cache_totals.hits,
        campaign_exchange_cache_misses=cache_totals.misses,
        campaign_exchange_cache_uncacheable=cache_totals.uncacheable,
        campaign_exchange_cache_hit_rate=round(cache_totals.hit_rate, 4),
    )


def _obs_overhead(world, *, pairs: int = 16, trace_out=None, metrics_out=None) -> dict:
    """Instrumentation overhead of the telemetry layer on a campaign.

    ``pairs`` interleaved plain/instrumented campaign pairs, alternating
    which leg runs first so drift (thermal state, cache warmth) and
    run order hit both legs equally.  Each pair yields one paired delta
    as a percentage of its plain leg; the reported overhead is the
    median delta, clamped at zero.  A single scheduler stall moves one
    pair, not the median, while a real hot-path regression (per-event
    span or counter work) moves every pair and still fails the gate.
    Every leg starts from a full collection: the two legs allocate
    almost the same tracked objects, so without it the delta measures
    which leg the cyclic collector's schedule happens to charge.

    The reported counters come from the *metrics registry* — the same
    tree ``--metrics-out`` writes — not from the bench's private stats
    plumbing, so a publication regression shows up here as a wrong
    number, not just in the obs tests.  ``trace_out``/``metrics_out``
    export the last instrumented round's artifacts (what CI uploads).
    """
    from repro.obs.export import write_metrics, write_trace

    deltas = []
    telemetry = None

    def plain() -> float:
        gc.collect()
        return _timed(lambda: repro.run_campaign(world))[1]

    def instrumented() -> float:
        nonlocal telemetry
        telemetry = Telemetry()
        gc.collect()
        return _timed(lambda: repro.run_campaign(world, telemetry=telemetry))[1]

    for index in range(pairs):
        if index % 2:
            instrumented_s = instrumented()
            plain_s = plain()
        else:
            plain_s = plain()
            instrumented_s = instrumented()
        deltas.append(100.0 * (instrumented_s - plain_s) / plain_s)
    overhead_pct = max(0.0, statistics.median(deltas))
    registry = telemetry.registry
    if trace_out is not None:
        write_trace(trace_out, telemetry.tracer)
    if metrics_out is not None:
        write_metrics(metrics_out, registry, telemetry.tracer)
    return {
        "campaign_obs_overhead_pct": round(overhead_pct, 2),
        "campaign_obs_weeks": int(registry.value("campaign.weeks", 0)),
        "campaign_obs_cache_hit_rate": round(
            registry.value("campaign.exchange_cache.hit_rate", 0.0), 4
        ),
    }


# ----------------------------------------------------------------------
# pytest-benchmark cases
# ----------------------------------------------------------------------
def bench_world_build(benchmark):
    durations: list[float] = []

    def build():
        world, elapsed = _timed(lambda: repro.build_world(WorldConfig(scale=SCALE)))
        durations.append(elapsed)
        return world

    world = benchmark.pedantic(build, rounds=3, iterations=1)
    assert world.sites
    _record(build_seconds=min(durations))


def bench_full_weekly_scan(benchmark):
    world = _shared_world()
    durations: list[float] = []

    def scan():
        run, elapsed = _timed(
            lambda: repro.run_weekly_scan(
                world, world.config.reference_week, plugins=("ecn", "trace")
            )
        )
        durations.append(elapsed)
        return run

    run = benchmark.pedantic(scan, rounds=3, iterations=1)
    assert run.observations
    quic = sum(1 for o in run.observations if o.quic_available)
    best = min(durations)
    _record(
        scan_seconds=best,
        scan_domains=len(run.observations),
        domains_per_second=round(len(run.observations) / best),
    )
    print(f"\nscanned {len(run.observations)} domains, {quic} QUIC, "
          f"{len(run.traces)} traces")


def bench_campaign(benchmark):
    """The default serial campaign (headline metric)."""
    world = _shared_world()
    durations: list[float] = []
    base = world.scan_engine().exchange_cache.stats.snapshot()

    def campaign():
        result, elapsed = _timed(lambda: repro.run_campaign(world))
        durations.append(elapsed)
        return result

    result = benchmark.pedantic(campaign, rounds=3, iterations=1)
    assert result.runs
    cache_totals = _cache_since(world, base)
    total_obs = sum(len(run.observations) for run in result.runs)
    best = min(durations)
    _record(
        campaign_seconds=best,
        campaign_weeks=len(result.runs),
        campaign_domains_per_second=round(total_obs / best),
    )
    _record_campaign_split(_phase_split(world), result, cache_totals)
    print(f"\ncampaign: {len(result.runs)} weeks, {total_obs} observations")


def bench_campaign_shm_pool(benchmark):
    """The persistent worker pool (2 workers, ticket dispatch).

    The engine outlives the rounds, as it outlives the weeks of a real
    campaign: round one pays pool spin-up, later
    rounds replay the weeks the parent already merged — best-of-N
    reports the warm steady state, same as every other case here
    benefits from the warm exchange cache of the shared world.
    """
    world = _shared_world()
    durations: list[float] = []

    with ShmPoolScanEngine(world, workers=2) as engine:

        def campaign():
            result, elapsed = _timed(lambda: repro.run_campaign(world, engine=engine))
            durations.append(elapsed)
            return result

        result = benchmark.pedantic(campaign, rounds=3, iterations=1)
    supervision = engine.supervision
    assert result.runs
    assert supervision.retries == 0
    total_obs = sum(len(run.observations) for run in result.runs)
    best = min(durations)
    _record(
        campaign_shm_pool_seconds=best,
        campaign_shm_pool_workers=2,
        campaign_shm_pool_domains_per_second=round(total_obs / best),
        campaign_shm_pool_retries=supervision.retries,
    )


# ----------------------------------------------------------------------
# Standalone entry points
# ----------------------------------------------------------------------
def run_full() -> None:
    world = _shared_world()
    recorded = json.loads(RESULTS_PATH.read_text())
    print(f"world cache: cold {recorded['world_build_cold_seconds']:.3f}s, "
          f"warm {recorded['world_build_warm_seconds']:.3f}s "
          f"({recorded['world_snapshot_bytes']} snapshot bytes; "
          f"{len(world.domains)} domains, {len(world.sites)} sites)")

    run, best = _best_of(
        lambda: repro.run_weekly_scan(
            world, world.config.reference_week, plugins=("ecn", "trace")
        )
    )
    _record(
        scan_seconds=best,
        scan_domains=len(run.observations),
        domains_per_second=round(len(run.observations) / best),
    )
    print(f"scan: {best:.4f}s ({round(len(run.observations) / best)} domains/s)")

    result, campaign_best, split, cache_totals = _campaign_with_split(world)
    total_obs = sum(len(r.observations) for r in result.runs)
    _record(
        campaign_seconds=campaign_best,
        campaign_weeks=len(result.runs),
        campaign_domains_per_second=round(total_obs / campaign_best),
    )
    _record_campaign_split(split, result, cache_totals)
    print(f"campaign: {campaign_best:.3f}s ({len(result.runs)} weeks, "
          f"{round(total_obs / campaign_best)} domains/s; site phase "
          f"{split.value('campaign.phase.site_seconds'):.3f}s, attribution "
          f"{split.value('campaign.phase.attribution_seconds'):.3f}s, cache hit "
          f"rate {cache_totals.hit_rate:.3f})")

    with ShmPoolScanEngine(world, workers=2) as pool_engine:
        shm_pool, shm_pool_best = _best_of(
            lambda: repro.run_campaign(world, engine=pool_engine)
        )
    pool_supervision = pool_engine.supervision
    assert pool_supervision.retries == 0
    shm_pool_obs = sum(len(r.observations) for r in shm_pool.runs)
    _record(
        campaign_shm_pool_seconds=shm_pool_best,
        campaign_shm_pool_workers=2,
        campaign_shm_pool_domains_per_second=round(shm_pool_obs / shm_pool_best),
        campaign_shm_pool_retries=pool_supervision.retries,
    )
    print(f"campaign (shm pool, 2 workers): {shm_pool_best:.3f}s "
          f"({round(shm_pool_obs / shm_pool_best)} domains/s, "
          f"{pool_supervision.retries} retries)")
    print(f"wrote {RESULTS_PATH}")


def _smoke_measure(trace_out=None, metrics_out=None) -> dict:
    """Scale-1000 smoke: weekly scan, serial and shm-pool campaigns.

    All cases are best-of-3 — the 2x CI gate compares single machines
    across runs, and a one-shot number would trip it on scheduler noise.
    The shm-pool case drives the whole worker/codec path end to end —
    forked workers over the parent's world, ticket dispatch, codec
    buffers with their cache-counter trailer (a persistent engine,
    best-of-3 so the warm steady state is what is gated).  The
    world-cache split drives the snapshot encode/persist/decode path
    the same way.
    """
    world_split = _world_cache_split(SMOKE_SCALE)
    world = world_split["world"]
    world.scan_engine().plan_for(4, ("cno", "toplist"))
    run, scan_best = _best_of(
        lambda: repro.run_weekly_scan(
            world, world.config.reference_week, plugins=("ecn", "trace")
        )
    )
    cache_base = world.scan_engine().exchange_cache.stats.snapshot()
    campaign, campaign_best = _best_of(lambda: repro.run_campaign(world))
    cache_totals = _cache_since(world, cache_base)
    campaign_obs = sum(len(r.observations) for r in campaign.runs)
    with ShmPoolScanEngine(world, workers=2) as pool_engine:
        shm_pool, shm_pool_best = _best_of(
            lambda: repro.run_campaign(world, engine=pool_engine)
        )
    pool_supervision = pool_engine.supervision
    shm_pool_obs = sum(len(r.observations) for r in shm_pool.runs)
    # Plugin-framework legs: the same shm-pool campaign through the
    # explicit single-plugin selection (must cost ~nothing relative to
    # the default selection — the framework's overhead gate, measured
    # as an interleaved delta of best-of-3 legs because the two legs run
    # identical work and any gap is dispatch cost or noise) and once
    # with a second plugin (grease) whose variants double as an
    # end-to-end row-through-codec exercise.
    plugin_overhead_pct = None
    plugin_ecn, plugin_ecn_best = None, None
    with ShmPoolScanEngine(world, workers=2) as plugin_engine:
        for _ in range(6):
            default_times, ecn_times = [], []
            for _ in range(3):
                _, elapsed = _timed(
                    lambda: repro.run_campaign(world, engine=plugin_engine)
                )
                default_times.append(elapsed)
                plugin_ecn, elapsed = _timed(
                    lambda: repro.run_campaign(
                        world, engine=plugin_engine, plugins=("ecn",)
                    )
                )
                ecn_times.append(elapsed)
            measured = max(
                0.0,
                100.0 * (min(ecn_times) - min(default_times)) / min(default_times),
            )
            plugin_overhead_pct = (
                measured
                if plugin_overhead_pct is None
                else min(plugin_overhead_pct, measured)
            )
            best = min(ecn_times)
            plugin_ecn_best = best if plugin_ecn_best is None else min(
                plugin_ecn_best, best
            )
            if plugin_overhead_pct <= PLUGIN_OVERHEAD_MAX_PCT:
                break
        plugin_multi, plugin_multi_best = _best_of(
            lambda: repro.run_campaign(
                world, engine=plugin_engine, plugins=("ecn", "grease")
            )
        )
    plugin_supervision = plugin_engine.supervision
    plugin_ecn_obs = sum(len(r.observations) for r in plugin_ecn.runs)
    plugin_multi_obs = sum(len(r.observations) for r in plugin_multi.runs)
    plugin_grease_rows = sum(
        len(r.plugin_rows.get("grease", {})) for r in plugin_multi.runs
    )
    obs_metrics = _obs_overhead(world, trace_out=trace_out, metrics_out=metrics_out)
    print(f"smoke scan (scale {SMOKE_SCALE}): {scan_best:.4f}s "
          f"({len(run.observations)} domains)")
    print(f"smoke campaign (scale {SMOKE_SCALE}): {campaign_best:.3f}s "
          f"({len(campaign.runs)} weeks, "
          f"{round(campaign_obs / campaign_best)} domains/s, cache hit rate "
          f"{cache_totals.hit_rate:.3f})")
    print(f"smoke shm-pool campaign (scale {SMOKE_SCALE}): {shm_pool_best:.3f}s "
          f"({round(shm_pool_obs / shm_pool_best)} domains/s, "
          f"{pool_supervision.retries} retries)")
    print(f"smoke plugin campaigns (scale {SMOKE_SCALE}, shm pool): ecn "
          f"{plugin_ecn_best:.3f}s ({plugin_overhead_pct:.2f}% over default), "
          f"ecn+grease {plugin_multi_best:.3f}s "
          f"({plugin_grease_rows} grease rows)")
    print(f"smoke world cache (scale {SMOKE_SCALE}): cold "
          f"{world_split['cold']:.3f}s, warm {world_split['warm']:.3f}s "
          f"({world_split['bytes']} snapshot bytes)")
    print(f"smoke obs overhead (scale {SMOKE_SCALE}): "
          f"{obs_metrics['campaign_obs_overhead_pct']:.2f}% "
          f"({obs_metrics['campaign_obs_weeks']} weeks, registry cache hit "
          f"rate {obs_metrics['campaign_obs_cache_hit_rate']:.3f})")
    return {
        **obs_metrics,
        "smoke_scale": SMOKE_SCALE,
        "smoke_world_cold_seconds": world_split["cold"],
        "smoke_world_warm_seconds": world_split["warm"],
        "smoke_world_snapshot_bytes": world_split["bytes"],
        "smoke_scan_seconds": scan_best,
        "smoke_scan_domains": len(run.observations),
        "smoke_campaign_seconds": campaign_best,
        "smoke_campaign_weeks": len(campaign.runs),
        "smoke_campaign_domains_per_second": round(campaign_obs / campaign_best),
        "smoke_campaign_exchange_cache_hits": cache_totals.hits,
        "smoke_campaign_exchange_cache_misses": cache_totals.misses,
        "smoke_campaign_exchange_cache_hit_rate": round(cache_totals.hit_rate, 4),
        "smoke_shm_pool_seconds": shm_pool_best,
        "smoke_shm_pool_workers": 2,
        "smoke_shm_pool_domains_per_second": round(shm_pool_obs / shm_pool_best),
        "smoke_shm_pool_retries": pool_supervision.retries,
        "plugin_ecn_shm_pool_seconds": plugin_ecn_best,
        "plugin_ecn_shm_pool_domains_per_second": round(
            plugin_ecn_obs / plugin_ecn_best
        ),
        "plugin_overhead_pct": round(plugin_overhead_pct, 2),
        "plugin_multi_shm_pool_seconds": plugin_multi_best,
        "plugin_multi_shm_pool_domains_per_second": round(
            plugin_multi_obs / plugin_multi_best
        ),
        "plugin_multi_grease_rows": plugin_grease_rows,
        "plugin_shm_pool_retries": plugin_supervision.retries,
    }


def run_smoke(check: bool, trace_out=None, metrics_out=None) -> int:
    """Scale-1000 smoke: fast enough for every CI run.

    Without ``check`` the fresh numbers become the committed baselines
    in ``BENCH_pipeline.json`` — the **single canonical perf
    artifact**.  With ``check`` the fresh scan, campaign *and shm-pool*
    campaign times are compared against the committed
    ``smoke_*_seconds`` baselines (a >2x regression on any fails), the
    campaign's exchange-cache hit rate must clear the committed
    :data:`CACHE_HIT_RATE_FLOOR`, warm world acquisition must be at
    least :data:`WORLD_CACHE_SPEEDUP_FLOOR` times faster than a cold
    build+snapshot, the telemetry layer must cost at most
    :data:`OBS_OVERHEAD_MAX_PCT` extra campaign wall time, and the
    pool campaign must complete with **zero retries** — on healthy
    input the supervised dispatch path must behave exactly like a
    blocking map, so any retry means workers are dying or the ticket
    timeout is misconfigured.  The shm-pool leg additionally requires
    that the committed full-bench shm-pool throughput is at least the
    committed inline campaign throughput (the whole point of the
    pool: the fork path wins, it does not merely match).
    The plugin legs require the explicit ``ecn``-plugin shm-pool
    campaign to cost at most :data:`PLUGIN_OVERHEAD_MAX_PCT` extra
    wall time over the default selection (interleaved paired delta,
    same run), and the two-plugin (``ecn+grease``) campaign to produce
    grease rows with zero retries.  Check runs are read-only —
    nothing on disk is rewritten,
    so repeated local checks cannot ratchet the gate and no second,
    drift-prone copy of the bench file exists.
    """
    metrics = _smoke_measure(trace_out=trace_out, metrics_out=metrics_out)
    if not check:
        _record(**metrics)
        print(f"wrote {RESULTS_PATH}")
        return 0
    try:
        committed = json.loads(RESULTS_PATH.read_text())
    except (OSError, ValueError):
        committed = {}
    status = 0
    for field, label in (
        ("smoke_scan_seconds", "smoke scan"),
        ("smoke_campaign_seconds", "smoke campaign"),
        ("smoke_shm_pool_seconds", "smoke shm-pool campaign"),
    ):
        baseline = committed.get(field)
        if baseline is None:
            print(f"no committed {field} baseline; run --smoke without "
                  "--check first", file=sys.stderr)
            return 2
        limit = baseline * SMOKE_REGRESSION_FACTOR
        fresh = metrics[field]
        print(f"{label}: baseline {baseline:.4f}s, limit {limit:.4f}s, "
              f"measured {fresh:.4f}s")
        if fresh > limit:
            print(f"FAIL: {label} regressed >{SMOKE_REGRESSION_FACTOR}x "
                  f"({fresh:.4f}s > {limit:.4f}s)", file=sys.stderr)
            status = 1
    hit_rate = metrics["smoke_campaign_exchange_cache_hit_rate"]
    print(f"smoke campaign cache hit rate: floor {CACHE_HIT_RATE_FLOOR:.2f}, "
          f"measured {hit_rate:.4f}")
    if hit_rate < CACHE_HIT_RATE_FLOOR:
        print(f"FAIL: exchange-cache hit rate {hit_rate:.4f} below the "
              f"committed floor {CACHE_HIT_RATE_FLOOR:.2f}", file=sys.stderr)
        status = 1
    pool_retries = metrics["smoke_shm_pool_retries"]
    print(f"smoke shm-pool ticket retries: required 0, measured {pool_retries}")
    if pool_retries != 0:
        print(f"FAIL: clean shm-pool campaign needed {pool_retries} ticket "
              "retries — pool workers are dying or timing out on healthy "
              "input", file=sys.stderr)
        status = 1
    pool_rate = committed.get("campaign_shm_pool_domains_per_second")
    inline_rate = committed.get("campaign_domains_per_second")
    if pool_rate is None or inline_rate is None:
        print("no committed campaign_shm_pool_domains_per_second / "
              "campaign_domains_per_second; run the full bench first",
              file=sys.stderr)
        return 2
    print(f"committed shm-pool vs inline (scale {committed.get('scale')}): "
          f"{pool_rate} vs {inline_rate} domains/s")
    if pool_rate < inline_rate:
        print(f"FAIL: committed shm-pool campaign throughput ({pool_rate} "
              f"domains/s) below the inline campaign ({inline_rate} "
              "domains/s) — the pool win regressed", file=sys.stderr)
        status = 1
    plugin_overhead = metrics["plugin_overhead_pct"]
    print(f"plugin-framework overhead: max {PLUGIN_OVERHEAD_MAX_PCT:.1f}%, "
          f"measured {plugin_overhead:.2f}% (ecn plugin vs default "
          f"selection, shm pool)")
    if plugin_overhead > PLUGIN_OVERHEAD_MAX_PCT:
        print(f"FAIL: selecting the ecn plugin explicitly costs "
              f"{plugin_overhead:.2f}% extra shm-pool campaign wall time "
              f"(budget {PLUGIN_OVERHEAD_MAX_PCT:.1f}%) — plugin dispatch "
              "is no longer free for the core scan", file=sys.stderr)
        status = 1
    grease_rows = metrics["plugin_multi_grease_rows"]
    plugin_retries = metrics["plugin_shm_pool_retries"]
    print(f"plugin two-plugin campaign: {grease_rows} grease rows "
          f"(required > 0), {plugin_retries} retries (required 0)")
    if grease_rows <= 0:
        print("FAIL: the ecn+grease shm-pool campaign produced no grease "
              "rows — plugin variants are not flowing through the pool",
              file=sys.stderr)
        status = 1
    if plugin_retries != 0:
        print(f"FAIL: plugin shm-pool campaigns needed {plugin_retries} "
              "ticket retries on healthy input", file=sys.stderr)
        status = 1
    overhead = metrics["campaign_obs_overhead_pct"]
    print(f"obs instrumentation overhead: max {OBS_OVERHEAD_MAX_PCT:.1f}%, "
          f"measured {overhead:.2f}%")
    if overhead > OBS_OVERHEAD_MAX_PCT:
        print(f"FAIL: telemetry instrumentation costs {overhead:.2f}% extra "
              f"campaign wall time (budget {OBS_OVERHEAD_MAX_PCT:.1f}%) — "
              "spans/metrics are doing work on the hot path",
              file=sys.stderr)
        status = 1
    speedup = metrics["smoke_world_cold_seconds"] / max(
        metrics["smoke_world_warm_seconds"], 1e-9
    )
    print(f"world-cache speedup: floor {WORLD_CACHE_SPEEDUP_FLOOR:.1f}x, "
          f"measured {speedup:.1f}x "
          f"({metrics['smoke_world_snapshot_bytes']} snapshot bytes)")
    if speedup < WORLD_CACHE_SPEEDUP_FLOOR:
        print(f"FAIL: warm world acquisition only {speedup:.1f}x faster than "
              f"cold (floor {WORLD_CACHE_SPEEDUP_FLOOR:.1f}x)", file=sys.stderr)
        status = 1
    if status == 0:
        print("OK: within regression budget (check runs are read-only)")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help=f"scale-{SMOKE_SCALE} scan+campaign smoke instead "
                             "of the full suite")
    parser.add_argument("--check", action="store_true",
                        help="gate the fresh smoke numbers against the "
                             "committed baselines (read-only: nothing on "
                             "disk is rewritten)")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="with --smoke: write the instrumented smoke "
                             "campaign's Chrome trace-event JSON (the CI "
                             "artifact; docs/observability.md)")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="with --smoke: write the instrumented smoke "
                             "campaign's schema-versioned metrics JSON")
    args = parser.parse_args()
    if args.smoke:
        return run_smoke(
            check=args.check,
            trace_out=args.trace_out,
            metrics_out=args.metrics_out,
        )
    if args.trace_out or args.metrics_out:
        parser.error("--trace-out/--metrics-out require --smoke")
    run_full()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
