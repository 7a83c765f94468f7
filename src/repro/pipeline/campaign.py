"""Longitudinal campaigns (the paper's June 2022 – April 2023 series)."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

from repro.pipeline.engine import ShardResultMissing
from repro.pipeline.runs import WeeklyRun
from repro.util.weeks import Week
from repro.web.world import World

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FaultPlan
    from repro.pipeline.engine import ScanPhaseStats


@dataclass
class Campaign:
    """An ordered series of runs from one vantage point."""

    runs: list[WeeklyRun] = field(default_factory=list)

    def add_run(self, run: WeeklyRun) -> None:
        self.runs.append(run)

    def weeks(self) -> list[Week]:
        return [run.week for run in self.runs]

    def run_at(self, week: Week) -> WeeklyRun:
        """The first run of ``week`` (a campaign holds at most ~50 runs,
        so a scan beats keeping an index in sync with ``runs``)."""
        for run in self.runs:
            if run.week == week:
                return run
        raise KeyError(f"no run for {week}")

    def closest_run(self, week: Week) -> WeeklyRun:
        if not self.runs:
            raise ValueError("empty campaign")
        # min keeps the first of equally close runs, so an exact hit
        # returns the first run of that week, like run_at.
        return min(self.runs, key=lambda run: abs(run.week - week))


def campaign_weeks(world: World, cadence_weeks: int = 4) -> list[Week]:
    """The default week series: campaign start to the reference week.

    Shared by :func:`run_campaign` and callers that need the series
    length up front (the CLI sizes its ``--progress`` heartbeat from
    it before the campaign starts).
    """
    if cadence_weeks < 1:
        raise ValueError(f"cadence_weeks must be >= 1, got {cadence_weeks}")
    weeks = []
    week = world.config.start_week
    while week <= world.config.reference_week:
        weeks.append(week)
        week = week + cadence_weeks
    if weeks[-1] != world.config.reference_week:
        weeks.append(world.config.reference_week)
    return weeks


def run_campaign(
    world: World,
    *,
    weeks: list[Week] | None = None,
    cadence_weeks: int = 4,
    vantage_id: str = "main-aachen",
    populations: tuple[str, ...] = ("cno",),
    plugins: tuple[str, ...] | None = None,
    workers: int | None = None,
    phase_stats: "ScanPhaseStats | None" = None,
    exchange_cache: bool = True,
    checkpoint_dir: "str | os.PathLike | None" = None,
    resume: bool = False,
    fault_plan: "FaultPlan | None" = None,
    shard_timeout: float | None = None,
    max_shard_retries: int | None = None,
    engine=None,
    telemetry=None,
    progress=None,
) -> Campaign:
    """Scan the world repeatedly over the measurement period.

    By default samples every ``cadence_weeks`` from the campaign start
    to the reference week — the resolution Figures 3/4/8 need.  All runs
    share one :class:`~repro.pipeline.engine.ScanPlan`, so the
    per-domain attribution tables are built once for the whole series,
    and every run records into the columnar :mod:`repro.store`.
    ``phase_stats`` (a :class:`~repro.pipeline.engine.ScanPhaseStats`)
    accumulates the site-phase / attribution wall-time split across the
    series, plus the exchange replay-cache hit/miss counters.

    ``plugins`` selects the measurement plugins every week runs
    (default: just the core ``ecn`` scan; see :mod:`repro.plugins`).
    Plugin variants ride the same executor, exchange cache, checkpoint
    and supervision machinery as the core scan; their merged rows land
    on each run's ``plugin_rows``.  The ``trace`` plugin is incompatible
    with checkpointing.

    ``exchange_cache`` (default on) is what makes re-measuring stable
    site-weeks cheap: exchanges whose inputs repeat across the series
    replay cached outcomes byte-identically (:mod:`repro.exchange`).
    ``exchange_cache=False`` forces every exchange to run fresh (the
    golden tests compare the two).

    ``workers`` switches the site phase to a
    :class:`~repro.pipeline.sharding.ShmPoolScanEngine`: a persistent
    pool of that many workers forks from the parent and scans the world
    it inherits, and the campaign's weeks are prefetched as one
    (site-range, week-range) ticket per worker, cut to near-equal
    scheduled work, so the whole series costs one dispatch round trip
    per worker.  Every executor runs each site exchange on a
    deterministic per-site RNG substream, so pool campaigns equal
    serial ones exactly, on any world
    (docs/architecture.md#worker-pool--shared-world).

    ``checkpoint_dir`` makes the campaign crash-safe: every completed
    week's site-phase entries persist atomically under that directory
    (:mod:`repro.pipeline.checkpoint`), keyed by the world's config and
    specs and the campaign parameters.  With ``resume=True`` weeks whose
    checkpoint verifies are rehydrated instead of recomputed; replayed
    weeks are byte-identical to executed ones (records fill in the same
    order, the clock sums the same floats), so an interrupted campaign
    resumes to exactly the uninterrupted result.  Checkpointing is
    incompatible with the ``trace`` plugin (trace results live outside
    the checkpointed entries).  The executor may differ between the
    original run and the resume: serial, or a pool of any worker count.

    ``engine`` supplies a pre-built engine instead (closing stays the
    caller's job — this is how benchmarks keep one warm pool across
    repeated campaigns); it is mutually exclusive with the
    engine-construction parameters above.

    ``shard_timeout`` / ``max_shard_retries`` tune the pool's ticket
    supervision (docs/robustness.md); ``fault_plan`` injects
    deterministic faults (tests only, :mod:`repro.faults`).

    ``telemetry`` (a :class:`repro.obs.Telemetry`) instruments the run:
    campaign → week → phase spans on the registry's tracer, worker
    ticket spans re-parented under their dispatching week, and the
    campaign's counters published into the registry at the end
    (docs/observability.md).  Instrumentation never changes results —
    golden tests pin instrumented campaigns byte-identical to
    uninstrumented ones.  ``progress`` (a
    :class:`repro.obs.CampaignProgress`) emits the per-week stderr
    heartbeat.  Both default off; the engine's ``telemetry`` attribute
    is restored afterwards, so a shared ``world.scan_engine()`` never
    leaks instrumentation into later runs.
    """
    from repro.pipeline.sharding import ShmPoolScanEngine
    from repro.plugins.registry import resolve_plugins

    plugin_names = resolve_plugins(
        tuple(plugins) if plugins is not None else None
    ).names
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")
    supervised = shard_timeout is not None or max_shard_retries is not None
    if engine is not None:
        if workers is not None:
            raise ValueError(
                "engine= is mutually exclusive with workers; configure "
                "the supplied engine directly"
            )
        if supervised:
            raise ValueError(
                "engine= is mutually exclusive with shard_timeout/"
                "max_shard_retries; configure the supplied engine directly"
            )
    elif workers is None and supervised:
        raise ValueError(
            "shard_timeout/max_shard_retries have no effect without workers; "
            "pass workers=N to run a supervised pool site phase"
        )
    if checkpoint_dir is not None and "trace" in plugin_names:
        raise ValueError(
            "checkpointing is incompatible with the trace plugin: tracebox "
            "results are not part of the checkpointed site phase"
        )
    if weeks is None:
        weeks = campaign_weeks(world, cadence_weeks)
    owns_engine = engine is None
    if engine is not None:
        pass  # caller-built engine: caller configures and closes it
    elif workers is not None:
        supervision = {}
        if shard_timeout is not None:
            supervision["shard_timeout"] = shard_timeout
        if max_shard_retries is not None:
            supervision["max_shard_retries"] = max_shard_retries
        engine = ShmPoolScanEngine(
            world,
            workers=workers,
            exchange_cache=exchange_cache,
            fault_plan=fault_plan,
            **supervision,
        )
    elif exchange_cache:
        engine = world.scan_engine()
    else:
        from repro.pipeline.engine import ScanEngine

        engine = ScanEngine(world, exchange_cache=False)
    checkpointer = None
    if checkpoint_dir is not None:
        from repro.pipeline.checkpoint import (
            CampaignCheckpointer,
            campaign_checkpoint_key,
        )

        key = campaign_checkpoint_key(
            world, vantage_id=vantage_id, populations=populations,
            plugins=plugin_names,
        )
        checkpointer = CampaignCheckpointer(
            checkpoint_dir,
            key,
            fault_plan=fault_plan,
            registry=telemetry.registry if telemetry is not None else None,
        )
    # Materialise the lazy world sections the series will touch before
    # any timed phase runs: the site-phase/attribution split in
    # ``phase_stats`` then measures scanning, not one-off section
    # construction (route building for this vantage, the per-site
    # ASN/org walk).  Pool workers fork after this, so they inherit
    # both sections built.
    world.ensure_site_attribution()
    world.ensure_routes(vantage_id)
    # Resolve which weeks replay from checkpoints *before* execution
    # starts, so a shm-pool engine can prefetch tickets for exactly the
    # weeks that will actually compute — the whole campaign then costs
    # one ticket round trip per worker instead of one per week.
    preloaded: dict[Week, object] = {}
    if checkpointer is not None and resume:
        for week in dict.fromkeys(weeks):
            preloaded[week] = checkpointer.load(week)
    if isinstance(engine, ShmPoolScanEngine):
        compute_weeks = [week for week in weeks if preloaded.get(week) is None]
        if compute_weeks:
            engine.prefetch_weeks(
                compute_weeks, vantage_id, populations=populations,
                plugins=plugin_names,
            )
    campaign = Campaign()
    # Instrumentation setup.  phase_stats doubles as the registry
    # source: when the caller did not pass one, an internal split
    # accumulates the same counters for publication.  Baselines are
    # snapshotted so a caller-supplied stats object (or a warm engine)
    # publishes only THIS campaign's deltas.
    stats = phase_stats
    tracer = None
    stats_base = None
    supervision_base = None
    prior_telemetry = engine.telemetry
    if telemetry is not None:
        if stats is None:
            from repro.pipeline.engine import ScanPhaseStats

            stats = ScanPhaseStats()
        stats_base = replace(stats)
        if isinstance(engine, ShmPoolScanEngine):
            supervision_base = engine.supervision.snapshot()
        engine.telemetry = telemetry
        tracer = telemetry.tracer
    campaign_span = (
        tracer.begin("campaign", "campaign", weeks=len(weeks), vantage=vantage_id)
        if tracer is not None
        else None
    )
    weeks_done = 0
    # Domain totals come from the finished runs (len() on the store's
    # lazy views is O(1)) — summing world.domains up front
    # costs more than the whole telemetry layer at bench scales.
    domains_scanned = 0
    try:
        for week in weeks:
            replay_entries = preloaded.get(week)
            entry_sink = (
                [] if checkpointer is not None and replay_entries is None else None
            )
            week_kwargs = dict(
                populations=populations,
                plugins=plugin_names,
                phase_stats=stats,
            )
            week_span = (
                tracer.begin(
                    "week", "campaign",
                    week=str(week), resumed=replay_entries is not None,
                )
                if tracer is not None
                else None
            )
            try:
                run = engine.run_week(
                    week,
                    vantage_id,
                    entry_sink=entry_sink,
                    replay_entries=replay_entries,
                    **week_kwargs,
                )
            except ShardResultMissing:
                if replay_entries is None:
                    raise
                # The checkpoint verified its checksum but does not
                # cover this week's schedule (e.g. written by a partial
                # format) — recompute the week instead of trusting it.
                entry_sink = []
                run = engine.run_week(
                    week, vantage_id, entry_sink=entry_sink, **week_kwargs
                )
            campaign.add_run(run)
            if checkpointer is not None and entry_sink is not None:
                checkpointer.store(week, entry_sink)
            if tracer is not None:
                tracer.end(week_span)
            weeks_done += 1
            if progress is not None or telemetry is not None:
                domains_scanned += len(run.observations)
            if progress is not None:
                cache = engine.exchange_cache
                sup = (
                    engine.supervision
                    if isinstance(engine, ShmPoolScanEngine)
                    else None
                )
                progress.week_done(
                    domains=domains_scanned,
                    cache_hits=cache.stats.hits if cache is not None else 0,
                    cache_misses=cache.stats.misses if cache is not None else 0,
                    retries=sup.retries if sup is not None else 0,
                    fallbacks=sup.fallbacks if sup is not None else 0,
                )
            if fault_plan is not None:
                fault_plan.after_week(week)
        if telemetry is not None:
            registry = telemetry.registry
            delta = type(stats)(
                **{
                    f.name: getattr(stats, f.name) - getattr(stats_base, f.name)
                    for f in fields(stats)
                }
            )
            delta.publish(registry)
            registry.add_counter("campaign.weeks", weeks_done)
            registry.add_counter("campaign.domains", domains_scanned)
            if supervision_base is not None:
                from repro.pipeline.sharding import SupervisionStats

                now = engine.supervision.snapshot()
                SupervisionStats(
                    *(a - b for a, b in zip(now, supervision_base, strict=True))
                ).publish(registry)
    finally:
        if tracer is not None:
            campaign_span.attrs["domains"] = domains_scanned
            tracer.end(campaign_span)
        engine.telemetry = prior_telemetry
        # Caller-supplied engines outlive the campaign (warm pools are
        # the point of passing one in); self-built pool engines tear
        # down here — on success, injected aborts and crashed
        # workers alike, which is what keeps worker processes from
        # leaking.
        if owns_engine and isinstance(engine, ShmPoolScanEngine):
            engine.close()
    return campaign
