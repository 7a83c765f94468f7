"""Parallel site phase: a persistent worker pool over the parent's world.

:class:`ShmPoolScanEngine` runs the ordered site phase of weekly runs on
a pool of forked worker processes.  Each worker inherits the campaign
world by fork — the very object the parent built, nothing encoded or
pickled — and builds its engine over it at startup; work travels as
(site-range, week-range) :class:`Ticket` descriptors that carry the
range's scheduled events — the long-lived worker/queue architecture
PATHspider uses for its path-transparency scans, applied to the weekly
site phase.  Planning, scheduling, attribution, tracebox and analysis
stay central: workers only execute the events they are sent and return
per-site scan entries, marshalled as one codec buffer per ticket-week
(:mod:`repro.store.codec`).

Determinism is the whole design.  Every site event draws from an RNG
substream seeded by (world seed, week, vantage, family, site, kind) —
:meth:`ScanEngine.event_stream` — and runs against a private virtual
clock, so no exchange can observe another's draws or timing.  As a
consequence the merged output is *identical* for any worker count and
any ticket layout, and equals the serial
:class:`~repro.pipeline.engine.ScanEngine` on the same world, routes
registered after the build included (golden-tested by the pool legs of
the differential harness, ``tests/differential.py``, and a campaign over
a re-registered route in ``tests/test_shm_pool.py``).

Tickets are **supervised** (docs/robustness.md): each ticket attempt
has a per-week deadline (``shard_timeout``).  A ticket whose result does
not arrive in time — the worker hung, or died and took the task with it
— or whose result buffer fails the codec checksum, or whose attempt
raised, is re-dispatched up to ``max_shard_retries`` times with
exponential backoff; a ticket that exhausts its retries is re-executed
*inline* in the parent, so a wedged pool can delay a run but never lose
results.  Determinism makes this sound: a retried ticket produces
byte-identical entries, so recovered runs equal clean runs exactly.  The
central merge validates coverage before touching any record and raises
the typed :class:`~repro.pipeline.engine.ShardResultMissing` on a gap
instead of a bare ``KeyError``.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.obs.spans import Tracer, decode_obs_blob, encode_obs_blob
from repro.pipeline.engine import ScanEngine, SiteEvent
from repro.plugins.registry import resolve_plugins
from repro.scanner.quic_scan import QuicScanConfig
from repro.scanner.tcp_scan import TcpScanConfig
from repro.store.codec import (
    CodecCorruption,
    decode_shard_payload_obs,
    encode_shard_results,
)
from repro.util.weeks import Week


@dataclass
class SupervisionStats:
    """Lifetime ticket-supervision counters of one pool engine.

    ``timeouts`` counts attempts whose result missed the deadline (hung
    or dead worker), ``failures`` attempts that raised or returned a
    corrupt buffer, ``retries`` every recovery execution (pool
    re-dispatches *and* the inline fallback), ``fallbacks`` just the
    inline re-executions.  A clean run leaves all four at zero.
    """

    retries: int = 0
    timeouts: int = 0
    failures: int = 0
    fallbacks: int = 0

    def snapshot(self) -> tuple[int, int, int, int]:
        return (self.retries, self.timeouts, self.failures, self.fallbacks)

    def publish(self, registry) -> None:
        """Publish into a registry under ``campaign.supervision.*``.

        The counters materialise even at zero: the CLI prints all four
        for every supervised run, so the metrics report must reproduce
        them — an absent counter and a clean run are different facts.
        """
        registry.counter("campaign.supervision.retries").value += self.retries
        registry.counter("campaign.supervision.timeouts").value += self.timeouts
        registry.counter("campaign.supervision.failures").value += self.failures
        registry.counter("campaign.supervision.fallbacks").value += self.fallbacks


def _ingest_obs(telemetry, blob: bytes) -> None:
    """Fold one worker obs blob into the parent's telemetry.

    Shipped spans re-parent under the tracer's *current* span — the
    site-phase span of the week being merged — so every worker ticket
    span hangs off the week that dispatched it.  Counter deltas
    (``worker.*``) accumulate into the registry.
    """
    spans, deltas = decode_obs_blob(blob)
    telemetry.tracer.adopt(spans, telemetry.tracer.current())
    if deltas:
        telemetry.registry.apply_counter_deltas(deltas)


def _worker_obs_blob(tracer: Tracer, cache_delta: tuple[int, int, int]) -> bytes:
    """Encode a worker's spans + exchange-cache delta as one obs blob.

    The delta rides under ``worker.exchange_cache.*`` — accounting of
    what *worker processes* executed, distinct from the merged
    ``campaign.exchange_cache.*`` counters folded from the trailer
    varints (which also cover inline and replayed work).
    """
    deltas = {}
    hits, misses, uncacheable = cache_delta
    if hits:
        deltas["worker.exchange_cache.hits"] = hits
    if misses:
        deltas["worker.exchange_cache.misses"] = misses
    if uncacheable:
        deltas["worker.exchange_cache.uncacheable"] = uncacheable
    return encode_obs_blob(tracer.spans, deltas)


@dataclass(frozen=True)
class Ticket:
    """One unit of pool work: a site-index range x a week range.

    ``site_lo`` is inclusive, ``site_hi`` exclusive.  ``events`` holds,
    per covered week, the range's scheduled events in schedule order as
    plain :class:`SiteEvent` field tuples (:func:`slice_schedule`) —
    tuples pickle at half the size of the dataclass.  The parent owns
    the scan plan and the schedule; workers never rebuild either.
    """

    index: int
    site_lo: int
    site_hi: int
    weeks: tuple[Week, ...]
    events: tuple[tuple[tuple, ...], ...] = ()


def plan_tickets(
    weights: Sequence[int],
    weeks: Sequence[Week],
    *,
    tickets: int,
) -> list[Ticket]:
    """Cut ``[0, len(weights)) x weeks`` into at most ``tickets``
    contiguous site ranges of near-equal ``weights`` (each site's
    scheduled event count).

    Range ``k`` ends at the first site where the running weight reaches
    ``k / tickets`` of the total, so no ticket outweighs its share by
    more than one site; with no weight at all the ranges are equal in
    site count.  Pure and total: every (site, week) cell, events or not,
    lands in exactly one ticket, in site-range order (property-tested
    in ``tests/test_shm_pool.py``).  All weeks share one ticket per site
    range, so each worker owns its sites for the whole campaign and its
    exchange cache stays warm: per-week tickets would land on whichever
    worker is free and miss the cache once per worker that sees a site.
    """
    if tickets < 1:
        raise ValueError("tickets must be >= 1")
    if not weights:
        return []
    running = list(accumulate(weights if any(weights) else [1] * len(weights)))
    cuts = (
        bisect_left(running, -(-k * running[-1] // tickets)) + 1
        for k in range(1, tickets)
    )
    bounds = sorted({0, len(running), *cuts})
    return [
        Ticket(index, site_lo, site_hi, tuple(weeks))
        for index, (site_lo, site_hi) in enumerate(zip(bounds, bounds[1:]))
    ]


def slice_schedule(
    tickets: Sequence[Ticket], schedule: Sequence[Sequence[SiteEvent]]
) -> list[Ticket]:
    """Give every ticket its site range's events for each week it covers.

    ``schedule[i]`` is the ordered event list of the tickets' ``i``-th
    week (one layout's tickets share their weeks).  Pure: every event
    lands in exactly one ticket-week whose range contains its site, in
    schedule order (property-tested in ``tests/test_shm_pool.py``), so
    a worker's cache sees its sites in the serial engine's order.
    """
    site_los = [ticket.site_lo for ticket in tickets]
    sliced: list[list[list[tuple]]] = [[[] for _ in schedule] for _ in tickets]
    for week_index, events in enumerate(schedule):
        for event in events:
            sliced[bisect_right(site_los, event.site_index) - 1][week_index].append(
                (event.position, event.kind, event.site_index, event.address,
                 event.authority_domain)
            )
    return [
        replace(ticket, events=tuple(map(tuple, weeks)))
        for ticket, weeks in zip(tickets, sliced, strict=True)
    ]


class _TicketState:
    """Parent-side bookkeeping for one dispatched ticket."""

    __slots__ = ("ticket", "spec", "attempt", "result", "done")

    def __init__(self, ticket: Ticket, spec: tuple, result):
        self.ticket = ticket
        self.spec = spec
        self.attempt = 0
        self.result = result
        self.done = False


@dataclass
class _WeekHarvest:
    """What the harvested tickets delivered for one (week, spec) so far:
    merged ``{(site, kind): (result, elapsed)}`` entries, summed worker
    exchange-cache stats, and worker obs blobs.  A ticket may cover many
    weeks while the tracer is inside *one* week's site phase, so blobs
    wait here until the week they describe is merged."""

    entries: dict = field(default_factory=dict)
    stats: tuple[int, int, int] = (0, 0, 0)
    obs: list[bytes] = field(default_factory=list)


class ShmPoolScanEngine(ScanEngine):
    """Persistent fork-pool engine over the parent's world.

    The name outlives the shared-memory transport; benchmarks look the
    class and its methods up by name.

    Drop-in for ``ScanEngine``: ``run_week`` / ``site_events`` keep their
    signatures, and scan plans are shared with the world's serial engine
    so campaigns pay planning once no matter which engine executes them.
    It overrides only how a week's entries are produced
    (:meth:`_week_entries`); scheduling, the merge and attribution are
    the serial engine's.

    A pool of ``workers`` processes forks from the parent on first use
    and builds each worker engine over the inherited world, so workers
    see the world exactly as the parent holds it — the lazy sections it
    already built and any route registered before the fork alike.  Work travels as
    :class:`Ticket` descriptors — a site range, a week range and the
    range's events, which the parent schedules from its own plan.
    Workers never plan or schedule; they stay warm across weeks only
    through their exchange caches.

    Supervision works at ticket granularity: each ticket attempt has
    ``shard_timeout`` seconds *per week it covers* to deliver buffers
    that decode cleanly, failures re-dispatch with backoff up to
    ``max_shard_retries`` times, and an exhausted ticket re-executes
    inline in the parent.  :attr:`supervision` counts the outcomes over
    the engine's lifetime; ``run_campaign`` publishes its delta.
    Merging goes through the validated
    :meth:`ScanEngine._apply_replay` path, like the serial engine.
    ``close()`` — reached by the campaign loop's ``finally`` on success,
    crash and abort alike — terminates and joins the workers; the
    lifecycle tests assert no worker process outlives it.  Workers see
    the world as it stood when they forked, so register routes
    (``world.network.register``) before the first dispatch.
    """

    #: Parent replay-cache bound: large enough for every (week, spec) a
    #: campaign produces, small enough that a long-lived engine cannot
    #: grow without limit.
    REPLAY_LIMIT = 64

    def __init__(
        self,
        world,
        *,
        workers: int,
        exchange_cache: bool = True,
        shard_timeout: float = 60.0,
        max_shard_retries: int = 2,
        retry_backoff: float = 0.05,
        fault_plan=None,
    ):
        if "fork" not in multiprocessing.get_all_start_methods():  # pragma: no cover
            raise RuntimeError(
                "ShmPoolScanEngine needs the fork start method (POSIX); "
                "use the serial ScanEngine on this platform"
            )
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0 < shard_timeout < math.inf:  # NaN fails too
            raise ValueError("shard_timeout must be positive and finite")
        if max_shard_retries < 0:
            raise ValueError("max_shard_retries must be >= 0")
        super().__init__(world, exchange_cache=exchange_cache)
        self._pool = None
        #: Pool size; also the ticket count of every dispatch.
        self.workers = workers
        #: Per-week result deadline of one ticket attempt (seconds).
        self.shard_timeout = shard_timeout
        #: Pool re-dispatches per ticket before the inline fallback.
        self.max_shard_retries = max_shard_retries
        #: Base of the exponential re-dispatch backoff (seconds).
        self.retry_backoff = retry_backoff
        #: Deterministic fault-injection hooks
        #: (:class:`repro.faults.FaultPlan`); ``None`` in production.
        self.fault_plan = fault_plan
        #: Lifetime supervision counters (``run_campaign`` publishes
        #: the campaign's delta under ``campaign.supervision.*``).
        self.supervision = SupervisionStats()
        self._plans = world.scan_engine()._plans  # share plan cache
        #: (week, spec) -> tickets whose ranges cover that week.
        self._pending: dict[tuple, list[_TicketState]] = {}
        #: (week, spec) -> what its harvested tickets delivered so far.
        self._harvests: dict[tuple, _WeekHarvest] = {}
        #: (week, spec) -> (merged entries, stats): weeks this parent
        #: already merged once.  A persistent engine serving repeat
        #: campaigns replays straight from here, with no dispatch, IPC
        #: or decode (results are immutable and :meth:`_apply_replay`
        #: only reads, so sharing the merged dict across runs is safe).
        #: Bounded FIFO.
        self._replayed: dict[tuple, tuple[dict, tuple[int, int, int]]] = {}
        #: First site of each ticket of the week merged last, for
        #: :meth:`_shard_of` (one range before any dispatch).
        self._ticket_los = [0]

    # ------------------------------------------------------------------

    def prefetch_weeks(
        self,
        weeks: Sequence[Week],
        vantage_id: str = "main-aachen",
        *,
        ip_version: int = 4,
        populations: Sequence[str] = ("cno", "toplist"),
        include_tcp: bool = False,
        quic_config: QuicScanConfig | None = None,
        tcp_config: TcpScanConfig | None = None,
        plugins: Sequence[str] | None = None,
    ) -> int:
        """Schedule ``weeks`` and dispatch their tickets ahead of run_week.

        The campaign calls this once with every week it will execute, so
        the whole campaign costs one ticket round trip per worker; weeks
        already pending or replayable under the same spec are skipped.
        Returns the number of tickets dispatched.
        """
        quic_config = quic_config or QuicScanConfig(ip_version=ip_version)
        tcp_config = tcp_config or TcpScanConfig(ip_version=ip_version)
        names = resolve_plugins(tuple(plugins) if plugins is not None else None).names
        # The same tuple run_week builds: frozen-dataclass configs hash
        # and compare by value, so calls that resolved the same defaults
        # share one key.
        spec = (
            vantage_id, ip_version, tuple(populations), include_tcp,
            quic_config, tcp_config, names,
        )
        todo = [
            week
            for week in dict.fromkeys(weeks)
            if (week, spec) not in self._pending
            and (week, spec) not in self._replayed
        ]
        if not todo:
            return 0
        # Fork first: the workers start while the parent plans and
        # schedules, and inherit none of the plan's pages
        # (forking after planning raised the campaign-pool benchmark's
        # peak RSS from 148.4-148.6 MB to 167.4-171.8 MB).  The schedule
        # is not kept — run_week reschedules each week for its merge,
        # which is cheaper than holding every week's events.
        self._ensure_pool()
        schedule = [
            self.site_events(
                week, vantage_id, ip_version=ip_version, populations=populations,
                include_tcp=include_tcp, plugins=names,
            )
            for week in todo
        ]
        return self._dispatch_tickets(tuple(todo), spec, schedule)

    def _dispatch_tickets(
        self, weeks: tuple[Week, ...], spec: tuple, schedule: Sequence[list[SiteEvent]]
    ) -> int:
        weights = [0] * len(self.world.sites)
        for event in chain.from_iterable(schedule):
            weights[event.site_index] += 1
        tickets = slice_schedule(
            plan_tickets(weights, weeks, tickets=self.workers), schedule
        )
        pool = self._ensure_pool()
        states = [
            _TicketState(ticket, spec, self._submit(pool, ticket, spec, 0))
            for ticket in tickets
        ]
        for state in states:
            for week in state.ticket.weeks:
                self._pending.setdefault((week, spec), []).append(state)
        return len(states)

    def _submit(self, pool, ticket: Ticket, spec: tuple, attempt: int):
        return pool.apply_async(_pool_run_ticket, (ticket, attempt, spec))

    # ------------------------------------------------------------------
    def _week_entries(self, events, week, spec):
        """Collect the week's entries from its tickets (dispatched on demand).

        The merged entries are kept for replay only when they cover
        every scheduled event: a gap then surfaces as
        :class:`ShardResultMissing` in the merge, and the next run of
        the week re-dispatches instead of replaying the gap.
        """
        key = (week, spec)
        source = f"shm-pool merge ({self.workers} workers)"
        hit = self._replayed.get(key)
        if hit is not None:
            merged, stats = hit
            # The worker exchange-cache counters recorded in the
            # original buffers fold again, so a rerun accounts exactly
            # like the run it replays.
            if self.exchange_cache is not None and any(stats):
                self.exchange_cache.stats.add(*stats)
            return merged, source
        if key not in self._pending:
            # run_week outside a prefetch (standalone weekly runs, or a
            # recompute after ShardResultMissing): single-week tickets.
            self._dispatch_tickets((week,), spec, [events])
        states = self._pending.pop(key, [])
        if states:
            self._ticket_los = [state.ticket.site_lo for state in states]
        for state in states:
            self._harvest(state)
        harvest = self._harvests.pop(key, None) or _WeekHarvest()
        if all((event.site_index, event.kind) in harvest.entries for event in events):
            while len(self._replayed) >= self.REPLAY_LIMIT:
                self._replayed.pop(next(iter(self._replayed)))
            self._replayed[key] = (harvest.entries, harvest.stats)
        # Worker spans re-parent under the current site-phase span.
        if self.telemetry is not None:
            for blob in harvest.obs:
                _ingest_obs(self.telemetry, blob)
        return harvest.entries, source

    def _shard_of(self, site_index: int) -> int:
        return bisect_right(self._ticket_los, site_index) - 1

    def _harvest(self, state: _TicketState) -> None:
        """Collect one ticket under supervision (timeout/retry/fallback).

        The single supervision loop of the runtime.  Each attempt has
        ``shard_timeout`` seconds per covered week to deliver buffers
        that decode cleanly.  A timeout (hung worker, or a dead one —
        the pool repopulates its processes but the lost task never
        completes), a corrupt buffer, or a raising attempt triggers a
        backed-off re-dispatch, up to ``max_shard_retries`` times; after
        that the ticket re-executes inline in the parent.  Results of
        abandoned attempts that straggle in later are never read.
        """
        if state.done:
            return
        ticket = state.ticket
        deadline = self.shard_timeout * max(1, len(ticket.weeks))
        week_entries = None
        while True:
            try:
                payload = state.result.get(deadline)
                week_entries = self._decode_ticket_payload(ticket, payload)
            except multiprocessing.TimeoutError:
                self.supervision.timeouts += 1
            except CodecCorruption:
                self.supervision.failures += 1
            except Exception:
                # The attempt itself raised in the worker (the pool
                # propagates the exception through .get()).
                self.supervision.failures += 1
            else:
                break
            if state.attempt < self.max_shard_retries:
                self.supervision.retries += 1
                if self.retry_backoff > 0:
                    time.sleep(self.retry_backoff * (2 ** state.attempt))
                state.attempt += 1
                state.result = self._submit(
                    self._ensure_pool(), ticket, state.spec, state.attempt
                )
            else:
                # Retries exhausted: execute just this ticket inline in
                # the parent — slower, but immune to a wedged pool.
                self.supervision.retries += 1
                self.supervision.fallbacks += 1
                week_entries = self._run_ticket_inline(
                    ticket, state.spec, attempt=state.attempt
                )
                break
        for week, (entries, stats, obs) in week_entries.items():
            harvest = self._harvests.setdefault((week, state.spec), _WeekHarvest())
            for site_index, kind, result, elapsed in entries:
                harvest.entries[(site_index, kind)] = (result, elapsed)
            harvest.stats = tuple(
                a + b for a, b in zip(harvest.stats, stats, strict=True)
            )
            if obs:
                harvest.obs.append(obs)
        state.done = True

    def _decode_ticket_payload(self, ticket: Ticket, payload) -> dict:
        """Validate + decode one ticket result into {week: (entries, stats, obs)}."""
        if (
            not isinstance(payload, list)
            or tuple(week for week, _ in payload) != ticket.weeks
        ):
            raise CodecCorruption(
                f"ticket {ticket.index} returned weeks that do not match "
                f"its range"
            )
        week_entries = {}
        totals = (0, 0, 0)
        for week, buffer in payload:
            entries, cache_stats, obs = decode_shard_payload_obs(buffer)
            week_entries[week] = (entries, tuple(cache_stats), obs)
            totals = tuple(a + b for a, b in zip(totals, cache_stats, strict=True))
        # Fold only after every buffer decoded: a corrupt week must not
        # half-account a discarded attempt.
        if self.exchange_cache is not None:
            self.exchange_cache.stats.add(*totals)
        return week_entries

    def _run_ticket_inline(self, ticket: Ticket, spec: tuple, *, attempt: int = 0) -> dict:
        week_entries = {}
        for week, events in zip(ticket.weeks, ticket.events, strict=True):
            # Fallback spans are recorded into a throwaway tracer and
            # stashed as blobs like worker spans: a multi-week ticket is
            # harvested inside *one* week's site phase, so recording
            # directly into the live tracer would mis-parent the other
            # weeks.  The blob routes each span to its own week's merge.
            tracer = Tracer() if self.telemetry is not None else None
            entries = _run_ticket_week(
                self, ticket, week, events, spec, tracer,
                attempt=attempt, fallback=True,
            )
            # Inline execution accounts its exchange-cache hits live, so
            # there is no recorded trailer to fold (or to replay later).
            blob = encode_obs_blob(tracer.spans) if tracer is not None else b""
            week_entries[week] = (entries, (0, 0, 0), blob)
        return week_entries

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            # Workers inherit the world by fork: initargs are never
            # pickled under the fork start method, and mp.Pool re-runs
            # the initializer in replacement workers after a crash.
            ctx = multiprocessing.get_context("fork")
            self._pool = ctx.Pool(
                processes=self.workers,
                initializer=_shm_worker_init,
                initargs=(self.world, self.exchange_cache is not None, self.fault_plan),
            )
        return self._pool

    def close(self) -> None:
        """Terminate and join the workers (idempotent)."""
        self._pending.clear()
        self._harvests.clear()
        self._replayed.clear()
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ShmPoolScanEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass


def _run_ticket_week(
    engine: ScanEngine, ticket: Ticket, week: Week, events, spec: tuple, tracer,
    **attrs,
) -> list:
    """Execute one ticket-week's events, under a ``ticket`` span when
    ``tracer`` is given (``attrs`` tag the attempt)."""
    vantage_id, ip_version, _, _, quic_config, tcp_config, _ = spec
    if tracer is not None:
        span = tracer.begin(
            "ticket", "worker", ticket=ticket.index, **attrs, week=str(week),
            site_lo=ticket.site_lo, site_hi=ticket.site_hi, events=len(events),
        )
    entries = engine._execute_entries(
        [SiteEvent(*event) for event in events],
        week, vantage_id, ip_version, quic_config, tcp_config,
    )
    if tracer is not None:
        tracer.end(span)
    return entries


#: This worker's ``(engine, fault_plan)``; built by the pool initializer
#: after fork.
_SHM_WORKER: tuple[ScanEngine, object] | None = None


def _shm_worker_init(world, exchange_cache, fault_plan):
    """Pool initializer: build this worker's engine over the inherited world.

    Runs once per worker process — including replacement workers forked
    after a crash, which inherit the parent's world as it is then.
    Lazy sections the parent had not built yet (routes of another
    vantage, say) hydrate on first miss inside the worker.
    """
    global _SHM_WORKER
    _SHM_WORKER = (ScanEngine(world, exchange_cache=exchange_cache), fault_plan)


def _pool_run_ticket(ticket: Ticket, attempt: int, spec: tuple) -> list:
    """Pool task: run one ticket's events, return one codec buffer per week.

    Fault hooks apply per (ticket, week, attempt): ``before_shard`` can
    crash the worker before a week runs, ``mangle_shard_buffer``
    corrupts exactly the buffers its rules name.
    """
    if _SHM_WORKER is None:  # pragma: no cover - misuse guard
        raise RuntimeError("worker was not initialised with a world")
    engine, fault_plan = _SHM_WORKER
    cache = engine.exchange_cache
    out = []
    for week, events in zip(ticket.weeks, ticket.events, strict=True):
        if fault_plan is not None:
            fault_plan.before_shard(shard=ticket.index, week=week, attempt=attempt)
        base = cache.stats.snapshot() if cache is not None else (0, 0, 0)
        # One worker span per ticket-week, shipped in this week's
        # buffer.  Workers always record it (one perf_counter pair and
        # ~100 blob bytes), so instrumented parents never need to
        # rebuild the pool to start tracing.
        tracer = Tracer()
        entries = _run_ticket_week(
            engine, ticket, week, events, spec, tracer, attempt=attempt
        )
        if cache is not None:
            now = cache.stats.snapshot()
            delta = (now[0] - base[0], now[1] - base[1], now[2] - base[2])
        else:
            delta = (0, 0, 0)
        buffer = encode_shard_results(
            entries, cache_stats=delta, obs=_worker_obs_blob(tracer, delta)
        )
        if fault_plan is not None:
            buffer = fault_plan.mangle_shard_buffer(
                buffer, shard=ticket.index, week=week, attempt=attempt
            )
        out.append((week, buffer))
    return out
