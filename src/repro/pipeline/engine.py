"""Site-first scan engine: weekly scans in O(sites), not O(domains).

The paper's methodology (§4.4) rests on the observation that hosts
sharing one IP behave identically: it scans per IP and attributes the
outcome to every domain the IP serves.  The original per-domain loop
exploited this only for the QUIC exchange itself — ASN lookup, org
mapping, policy resolution and DNS re-resolution still ran once per
domain per week, dominating wall time at scale.

The engine splits a weekly run into two phases (docs/architecture.md):

1. **Site phase** — everything expensive happens once per
   (site, week, vantage, family): policy resolution (memoized on the
   world), the QUIC/TCP exchanges, and — at world build time — ASN/org
   attribution.  Every exchange runs on its own RNG substream and
   private virtual clock; the central merge fills site records and
   advances the world clock once, summing elapsed times in exactly the
   order the per-domain reference loop triggers the exchanges, so
   results are byte-for-byte equal to the reference semantics
   (:func:`repro.pipeline.runs.run_weekly_scan_reference`).
2. **Attribution phase** — per-site results fan out to domains through
   a :class:`ScanPlan`: column passes over the world's domain and site
   tables fill the store's week-invariant per-position columns and
   per-site segments (address, org and site attachment are
   week-invariant for a given IP family).  Recording a week is one
   store write per site; no per-domain work, no string parsing, no
   trie walks, no policy evaluation.

The site phase is emitted pre-ordered (no per-week sort): a
week-invariant QUIC trigger index — prefix-minimum records over the
store's rank-sorted :class:`~repro.store.columns.SiteSegment` arrays —
merges with the sites' first attributed positions in one linear pass.
Exchanges route through the outcome replay cache (:mod:`repro.exchange`):
when a site-week's derived inputs repeat (same behaviour epoch, client
config, route epoch, response) the recorded result and clock trajectory
replay byte-identically instead of re-simulating the connection.

:meth:`ScanEngine.site_events` exposes the ordered site phase as data.
Each site event draws from an independent :class:`~repro.util.rng.RngStream`
seeded deterministically from (world seed, week, vantage, family, site,
kind) — built only when the exchange runs fresh on a path that can draw
— and runs against its own virtual clock.  Exchanges are therefore
order-independent: any partition of the site phase — serial,
:class:`~repro.pipeline.sharding.ShmPoolScanEngine` with any worker
count or ticket tiling, checkpoint replay — produces identical results.

Attribution records into the columnar
:class:`~repro.store.columns.ObservationStore` (O(sites) per week);
runs serve observations as lazy :class:`~repro.store.views.ObservationView`
objects.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Final, Sequence

from repro.exchange import (
    ExchangeCache,
    ExchangeOutcome,
    RecordingClock,
    replay_outcome,
)
from repro.exchange.core import (
    quic_exchange_inputs,
    run_quic_exchange,
    run_tcp_exchange,
    tcp_exchange_inputs,
)
from repro.netsim.clock import Clock
from repro.obs.metrics import safe_ratio
from repro.pipeline.runs import ensure_site_record, site_stream
from repro.plugins.base import PLUGIN_KIND_BASE
from repro.plugins.registry import (
    DEFAULT_PLUGINS,
    PluginSelection,
    binding_for_kind,
    resolve_plugins,
    stream_tag,
)
from repro.scanner.quic_scan import QuicScanConfig, quic_client_config, scan_site_quic
from repro.scanner.tcp_scan import TcpScanConfig, scan_site_tcp, tcp_client_config
from repro.store.columns import (
    NO_ROW,
    UNKNOWN_ORG,
    DomainColumns,
    ObservationStore,
    plan_columns,
)
from repro.util.gcpause import gc_paused
from repro.util.rng import RngStream
from repro.util.weeks import Week

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.store.views import StoreWeeklyRun  # views -> runs -> pipeline
    from repro.web.world import World  # world -> engine

#: Event kinds of the site phase, ordered as the reference loop fires
#: them at one domain position (QUIC before TCP).
QUIC_EVENT = 0
TCP_EVENT = 1

_KIND_NAMES: Final = {QUIC_EVENT: "quic", TCP_EVENT: "tcp"}


def _kind_label(kind: int) -> str:
    """Diagnostic label of an event kind (core name or plugin tag)."""
    name = _KIND_NAMES.get(kind)
    if name is not None:
        return name
    try:
        return stream_tag(kind)
    except ValueError:
        return str(kind)


class ShardResultMissing(RuntimeError):
    """A site-phase merge is missing results for scheduled events.

    Raised by the central merge — pool execution or checkpoint
    replay — *before* any record is mutated, naming exactly which
    ``(site_index, kind)`` entries are absent (and, when the caller
    knows the partition, which ticket owned them), instead of surfacing
    as a bare ``KeyError`` mid-merge.
    """

    def __init__(
        self,
        missing: Sequence[tuple[int, int]],
        *,
        source: str = "site-phase merge",
        shard_of=None,
    ):
        self.missing = tuple(missing)
        shown = ", ".join(
            f"(site {site_index}, {_kind_label(kind)}"
            + (f", shard {shard_of(site_index)}" if shard_of is not None else "")
            + ")"
            for site_index, kind in self.missing[:8]
        )
        if len(self.missing) > 8:
            shown += f", ... {len(self.missing) - 8} more"
        super().__init__(
            f"{source} is missing {len(self.missing)} of the scheduled "
            f"site-event results: {shown}"
        )


@dataclass(slots=True)
class SiteEvent:
    """One scheduled per-site exchange of the site phase."""

    position: int  # observation position of the triggering domain
    kind: int  # QUIC_EVENT | TCP_EVENT | a registered plugin-variant kind
    site_index: int
    address: str  # family address the triggering domain resolved to
    authority_domain: str


@dataclass
class ScanPlan:
    """Precomputed attribution for one (ip family, populations) pair."""

    ip_version: int
    populations: tuple[str, ...]
    #: Week-invariant columnar layout, shared by every run of a
    #: campaign; its segments are the planned sites, ordered by first
    #: attributed position.
    columns: DomainColumns
    #: Week-invariant QUIC trigger index: position-sorted candidate
    #: tuples ``(position, site_index, rank_on, rank_off)`` derived
    #: from the columns' rank-sorted
    #: :class:`~repro.store.columns.SiteSegment` arrays.  At a weekly
    #: share exactly one candidate per site satisfies
    #: ``rank_on < share <= rank_off`` — its position is where the
    #: site's QUIC exchange fires — so the site phase emits events
    #: pre-ordered with no per-week sort.
    quic_triggers: list[tuple]


def _quic_triggers(columns: DomainColumns) -> list[tuple]:
    """The position-sorted QUIC trigger index of one column set.

    Candidates come from the rank-sorted
    :class:`~repro.store.columns.SiteSegment` arrays: each is a
    prefix-minimum record — the position that becomes the site's
    earliest QUIC-wanting domain once the weekly share exceeds
    ``rank_on``, superseded when it exceeds ``rank_off`` (the next,
    earlier-position candidate of the same site).
    """
    triggers = []
    for segment in columns.segments:
        candidates = segment.quic_trigger_candidates()
        rank_offs = [rank for rank, _ in candidates[1:]] + [float("inf")]
        for (rank_on, position), rank_off in zip(candidates, rank_offs, strict=True):
            triggers.append((position, segment.site_index, rank_on, rank_off))
    triggers.sort()  # positions are globally unique
    return triggers


@dataclass
class ScanPhaseStats:
    """Accumulated wall-time split of weekly runs (pass to ``run_week``).

    ``site_phase_seconds`` covers the per-site exchanges,
    ``attribution_seconds`` the O(sites) store recording plus plugin
    row merging.  ``analysis_seconds`` is filled by callers that time
    an analysis pass over the finished runs — the engine never runs
    analysis.

    The ``exchange_cache_*`` counters account the replay cache
    (:mod:`repro.exchange`) over the covered site phases: ``hits``
    replayed a cached outcome, ``misses`` ran fresh and populated the
    cache, ``uncacheable`` ran fresh because the path may draw
    randomness.  Pool runs merge worker-side counters in before the
    site phase ends, so the split is executor-independent.

    The ``shard_*`` counters account supervised pool execution
    (:class:`~repro.pipeline.sharding.ShmPoolScanEngine`):
    ``shard_timeouts`` ticket attempts that exceeded the deadline (hung
    or dead worker), ``shard_failures`` attempts that raised (worker
    crash, corrupt result buffer), ``shard_retries`` recovery
    executions — pool re-dispatches plus the final inline fallback.  A
    healthy run reports zeros; the bench gate pins that.
    """

    site_phase_seconds: float = 0.0
    attribution_seconds: float = 0.0
    analysis_seconds: float = 0.0
    exchange_cache_hits: int = 0
    exchange_cache_misses: int = 0
    exchange_cache_uncacheable: int = 0
    shard_retries: int = 0
    shard_timeouts: int = 0
    shard_failures: int = 0

    @property
    def exchange_cache_hit_rate(self) -> float:
        # Registry convention: derived ratios are 0.0 on an empty
        # denominator (repro.obs.metrics.safe_ratio).
        return safe_ratio(
            self.exchange_cache_hits,
            self.exchange_cache_hits + self.exchange_cache_misses,
        )

    def publish(self, registry) -> None:
        """Publish this split into a :class:`MetricsRegistry`.

        The registry namespace (docs/observability.md) supersedes the
        ad-hoc stdout prints: phase seconds land as gauges under
        ``campaign.phase.*``, cache and supervision counters under
        ``campaign.exchange_cache.*`` / ``campaign.supervision.*``,
        with the hit rate as a derived ratio over the counters.
        """
        registry.gauge("campaign.phase.site_seconds").set(self.site_phase_seconds)
        registry.gauge("campaign.phase.attribution_seconds").set(self.attribution_seconds)
        registry.gauge("campaign.phase.analysis_seconds").set(self.analysis_seconds)
        registry.add_counter("campaign.exchange_cache.hits", self.exchange_cache_hits)
        registry.add_counter("campaign.exchange_cache.misses", self.exchange_cache_misses)
        registry.add_counter(
            "campaign.exchange_cache.uncacheable", self.exchange_cache_uncacheable
        )
        registry.add_counter(
            "campaign.exchange_cache.attempts",
            self.exchange_cache_hits + self.exchange_cache_misses,
        )
        registry.ratio(
            "campaign.exchange_cache.hit_rate",
            "campaign.exchange_cache.hits",
            "campaign.exchange_cache.attempts",
        )
        # Supervision counters publish from the engine's richer
        # SupervisionStats (which also has fallbacks), not from the
        # shard_* mirror here — one source per registry name.

    def merge_cache_counters(self, other: "ScanPhaseStats") -> None:
        """Fold another split's exchange-cache counters into this one."""
        self.exchange_cache_hits += other.exchange_cache_hits
        self.exchange_cache_misses += other.exchange_cache_misses
        self.exchange_cache_uncacheable += other.exchange_cache_uncacheable


class ScanEngine:
    """Runs weekly scans site-first against one :class:`World`.

    Plans cache each domain's address, site and org attribution and the
    per-site domain segments per (family, populations), built from the
    world's domain and site tables; create the engine via
    :meth:`World.scan_engine` so campaigns share one instance.  Call
    :meth:`invalidate` after mutating the world's resolver, prefix table
    or domain set post-build.

    ``exchange_cache`` (default on) routes every site exchange through
    the outcome replay cache (:mod:`repro.exchange`): an exchange whose
    derived inputs repeat — same behaviour epoch, client config, route
    epoch, response — replays the recorded result and clock trajectory
    instead of re-simulating, byte-identically (golden-tested by the
    ``uncached`` legs of ``tests/differential.py``).  Pass ``exchange_cache=False``
    to force every exchange to run fresh.
    """

    def __init__(self, world: "World", *, exchange_cache: bool = True):
        self.world = world
        self._plans: dict[tuple[int, tuple[str, ...]], ScanPlan] = {}
        self.exchange_cache: ExchangeCache | None = (
            ExchangeCache() if exchange_cache else None
        )
        #: Optional :class:`repro.obs.Telemetry`.  ``None`` (the
        #: default) keeps every hot path branch-free except one
        #: attribute test per week; campaigns set and restore it.
        self.telemetry = None

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        self._plans.clear()
        # Cached outcomes key on objects a world mutation may replace
        # (policies, routes, site identities) — drop them with the plans.
        if self.exchange_cache is not None:
            self.exchange_cache.clear()

    def plan_for(self, ip_version: int, populations: Sequence[str]) -> ScanPlan:
        key = (ip_version, tuple(populations))
        plan = self._plans.get(key)
        if plan is None:
            with gc_paused():
                plan = self._build_plan(*key)
            self._plans[key] = plan
        return plan

    def _build_plan(self, ip_version: int, populations: tuple[str, ...]) -> ScanPlan:
        """The plan's columns, one pass each over the domain and site tables.

        A planned domain's address follows the world's zone rule
        (:func:`~repro.web.world.dns_record_for`): v4 is its site's
        ``ip``, v6 its site's ``ipv6`` only when it ``has_aaaa``; its
        site is its own when it has an address.  Org attribution is
        computed once per site.  Explicit resolver records
        (:meth:`~repro.dns.resolver.Resolver.add`) then override their
        names' positions, each attached to the site that owns its
        address — not the site it was built under, so a resolver
        mutated post-build needs no special case.  The ``(positions,
        ranks)`` groups come from the final site-index column:
        ascending positions within a site, groups ordered by first
        position, which is what scheduling and the store's segments
        require.
        """
        world = self.world
        # Attribution is a lazy world section; the plan bakes Site.org
        # into its columns, so materialise it before the passes.
        world.ensure_site_attribution()
        sites = world.sites
        planned = [domain for domain in world.domains if domain.population in populations]
        # The zone rule of dns_record_for: a domain's address is its
        # site's ``ip``, or under v6 its site's ``ipv6`` when it has AAAA.
        v4 = ip_version == 4
        site_addresses = [site.ip if v4 else site.ipv6 for site in sites]
        site_indexes = array(
            "q",
            [
                domain.site_index
                if domain.site_index >= 0
                and (v4 or domain.has_aaaa)
                and site_addresses[domain.site_index] is not None
                else NO_ROW
                for domain in planned
            ],
        )
        lookup = world.prefixes.lookup
        org_for = world.asorg.org_for
        site_orgs = [
            site.org if site.asn is not None else org_for(lookup(site.ip)) for site in sites
        ]
        domains = [domain.name for domain in planned]
        ips = [site_addresses[index] if index >= 0 else None for index in site_indexes]
        orgs = [site_orgs[index] if index >= 0 else UNKNOWN_ORG for index in site_indexes]
        records = world.resolver.records
        if records:
            site_by_ip = world.site_by_ip
            for position, name in enumerate(domains):
                record = records.get(name)
                if record is None:
                    continue
                address = record.a if v4 else record.aaaa
                # An address without a registered host stays site-less.
                site = site_by_ip(address) if address is not None else None
                ips[position] = address
                site_indexes[position] = NO_ROW if site is None else site.index
                orgs[position] = UNKNOWN_ORG if site is None else site_orgs[site.index]
        groups: dict[int, tuple[list[int], list[float]]] = {}
        for position, index in enumerate(site_indexes):
            if index >= 0:
                group = groups.get(index)
                if group is None:
                    group = groups[index] = ([], [])
                group[0].append(position)
                group[1].append(planned[position].adoption_rank)
        columns = plan_columns(
            groups,
            domains=domains,
            populations=[domain.population for domain in planned],
            lists=[domain.lists for domain in planned],
            parked=bytearray([domain.parked for domain in planned]),
            resolved=bytearray([address is not None for address in ips]),
            ips=ips,
            orgs=orgs,
            site_indexes=site_indexes,
        )
        return ScanPlan(
            ip_version=ip_version,
            populations=populations,
            columns=columns,
            quic_triggers=_quic_triggers(columns),
        )

    # ------------------------------------------------------------------
    # Site phase scheduling
    # ------------------------------------------------------------------
    def _schedule(
        self,
        plan: ScanPlan,
        week: Week,
        vantage_id: str,
        include_tcp: bool,
        selection: PluginSelection | None = None,
    ) -> tuple[list[SiteEvent], dict[int, bool]]:
        """The site phase as ordered events + per-site QUIC capability.

        Event order reproduces the reference loop: each site's QUIC
        exchange fires at its first domain that wants QUIC this week,
        its TCP exchange at its first attributed domain, globally
        ordered by domain position (QUIC before TCP at the same
        position).  Events are *emitted* in that order by merging two
        position-sorted streams — the week-invariant QUIC trigger index
        and the sites' first attributed positions — so scheduling a
        week is a single linear pass with no sort.

        ``selection`` appends one event per (plugin variant, fired QUIC
        event) after the core stream, grouped by variant in selection
        order: variants run against exactly the sites the core scan
        reached this week, reusing the triggering domain as authority.
        The default ``ecn``-only selection appends nothing, so the
        stream — and everything downstream of it — is byte-identical
        to the pre-plugin engine.
        """
        world = self.world
        sites = world.sites
        site_policy = world.site_policy
        share = world.adoption_share(week)
        columns = plan.columns
        segments = columns.segments
        quic_capable: dict[int, bool] = {}
        for segment in segments:
            index = segment.site_index
            policy = site_policy(sites[index], vantage_id)
            quic_capable[index] = policy.reachable and policy.quic_profile is not None

        # A trigger fires when the weekly share strictly exceeds its
        # activation rank but not its deactivation rank (where an earlier
        # position of the same site takes over) at a QUIC-capable site.
        ips, domains = columns.ips, columns.domains
        fired = [
            SiteEvent(position, QUIC_EVENT, site_index, ips[position], domains[position])
            for position, site_index, rank_on, rank_off in plan.quic_triggers
            if rank_on < share <= rank_off and quic_capable[site_index]
        ]
        if include_tcp:
            events: list[SiteEvent] = []
            cursor = 0
            for segment in segments:
                first = segment.positions[0]
                # QUIC sorts before TCP at equal positions (same site).
                while cursor < len(fired) and fired[cursor].position <= first:
                    events.append(fired[cursor])
                    cursor += 1
                events.append(
                    SiteEvent(
                        first, TCP_EVENT, segment.site_index, ips[first], domains[first]
                    )
                )
            events.extend(fired[cursor:])
        else:
            events = list(fired)
        if selection is not None and selection.bindings:
            for binding in selection.bindings:
                kind = binding.kind
                for event in fired:
                    events.append(
                        SiteEvent(
                            event.position,
                            kind,
                            event.site_index,
                            event.address,
                            event.authority_domain,
                        )
                    )
        return events, quic_capable

    def site_events(
        self,
        week: Week,
        vantage_id: str = "main-aachen",
        *,
        ip_version: int = 4,
        populations: Sequence[str] = ("cno", "toplist"),
        include_tcp: bool = False,
        plugins: Sequence[str] | None = None,
    ) -> list[SiteEvent]:
        """Public view of the site phase: one week's ordered events (what
        the pool engine slices into tickets)."""
        plan = self.plan_for(ip_version, populations)
        events, _ = self._schedule(
            plan, week, vantage_id, include_tcp, resolve_plugins(plugins)
        )
        return events

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def event_stream(
        self, event: SiteEvent, week: Week, vantage_id: str, ip_version: int
    ) -> RngStream:
        """The deterministic RNG substream of one site event.

        Seeded from everything that identifies the exchange — the ticket
        layout, executor, and worker order never enter the seed, which is
        why any partition of the site phase reproduces the same draws.
        Plugin-variant events use their registry tag
        (``plugin/variant``), so a variant's draws are independent of
        the core scan's and of every other variant's.
        """
        return site_stream(
            self.world, week, vantage_id, ip_version, event.site_index,
            _kind_label(event.kind),
        )

    def _run_exchange(
        self,
        event: SiteEvent,
        week: Week,
        vantage_id: str,
        ip_version: int,
        quic_config: QuicScanConfig,
        tcp_config: TcpScanConfig,
    ) -> tuple[object, float]:
        """One site event on a private clock: ``(result, elapsed)``.

        Core events return the exchange result; plugin-variant events
        return the plugin's typed row — rows, not raw results, are what
        variants contribute downstream (``run.plugin_rows``, ticket
        frames, checkpoints).  Both go through the replay cache the same way:
        a miss runs the real exchange against a :class:`RecordingClock`
        and caches (result, advance trajectory), a hit replays exactly
        that trajectory, and an exchange whose key derivation reports
        ``None`` (the path may draw randomness) always runs fresh.  The
        event's RNG substream is built only for a fresh exchange on a
        path that can draw; every other exchange never consults it.
        """
        world = self.world
        site = world.sites[event.site_index]
        kind = event.kind
        source_ip = world.vantages[vantage_id].source_ip
        binding = None
        if kind == QUIC_EVENT:
            quic = True
            client_config = quic_client_config(quic_config, source_ip)
        elif kind == TCP_EVENT:
            quic = False
            client_config = tcp_client_config(tcp_config, source_ip)
        else:
            binding = binding_for_kind(kind)
            quic = binding.variant.transport == "quic"
            client_config = binding.client_config(source_ip, quic_config.ip_version)
        prepare = quic_exchange_inputs if quic else tcp_exchange_inputs
        cache = self.exchange_cache
        clock = Clock()
        inputs = prepare(
            world, site, week, vantage_id, client_config,
            path_memo=cache.path_memo if cache is not None else None,
        )
        key = cache.key_for(inputs) if cache is not None else None
        if key is not None:
            outcome = cache.fetch(key)
            if outcome is not None:
                result = replay_outcome(outcome, clock)
                if binding is not None:
                    result = binding.plugin.row(binding.variant, result)
                return result, clock.now
        elif cache is not None:
            cache.stats.uncacheable += 1
        path = inputs.path
        rng = (
            self.event_stream(event, week, vantage_id, ip_version)
            if path is not None and not path.draw_free
            else None
        )
        target = RecordingClock(clock) if key is not None else clock
        authority = f"www.{event.authority_domain}"
        if binding is not None:
            run = run_quic_exchange if quic else run_tcp_exchange
            result = run(world, inputs, week, vantage_id, authority, rng=rng, clock=target)
        else:
            # Core exchanges go through the scanner entry points by
            # module-global lookup, so wrappers installed on this
            # module's names see every fresh scan.
            scan, config = (
                (scan_site_quic, quic_config) if quic else (scan_site_tcp, tcp_config)
            )
            result = scan(
                world, site, week, vantage_id, config,
                authority=authority, rng=rng, clock=target, inputs=inputs,
            )
        if key is not None:
            cache.store(key, ExchangeOutcome(result, tuple(target.advances)))
        if binding is not None:
            result = binding.plugin.row(binding.variant, result)
        return result, clock.now

    def _execute_entries(
        self,
        events: list[SiteEvent],
        week: Week,
        vantage_id: str,
        ip_version: int,
        quic_config: QuicScanConfig,
        tcp_config: TcpScanConfig,
    ) -> list[tuple[int, int, object, float]]:
        """Run events on their per-site substreams; returns checkpoint entries.

        Each event yields one ``(site_index, kind, result, elapsed)``
        entry (:meth:`_run_exchange`).  The single definition of site
        execution: the serial engine, shm-pool workers and the pool's
        inline fallback all run exactly this, and the central merge then
        sums elapsed times in event order — which is what keeps them
        bit-identical.
        """
        run_exchange = self._run_exchange
        out: list[tuple[int, int, object, float]] = []
        for event in events:
            result, elapsed = run_exchange(
                event, week, vantage_id, ip_version, quic_config, tcp_config
            )
            out.append((event.site_index, event.kind, result, elapsed))
        return out

    def _week_entries(
        self, events: list[SiteEvent], week: Week, spec: tuple
    ) -> tuple[dict[tuple[int, int], tuple[object, float]], str]:
        """Produce a week's entries keyed ``(site_index, kind)``.

        Returns the entries and the merge's diagnostic source name.
        ``spec`` is the week's ``(vantage_id, ip_version, populations,
        include_tcp, quic_config, tcp_config, plugins)``.  The serial
        engine executes ``events`` here; the shm-pool engine overrides
        this (and only this) to collect the week's tickets, keyed on
        ``spec``.
        """
        vantage_id, ip_version, _, _, quic_config, tcp_config, _ = spec
        entries = self._execute_entries(
            events, week, vantage_id, ip_version, quic_config, tcp_config
        )
        return {
            (site_index, kind): (result, elapsed)
            for site_index, kind, result, elapsed in entries
        }, "serial site phase"

    #: Maps a site index to the work unit that produced its entries, for
    #: :class:`ShardResultMissing` messages; ``None`` when unpartitioned.
    _shard_of = None

    def _apply_replay(
        self,
        events: list[SiteEvent],
        replay: dict[tuple[int, int], tuple[object, float]],
        records: dict,
        *,
        entry_sink: list | None = None,
        source: str = "site-phase replay",
        plugin_rows: dict | None = None,
    ) -> None:
        """Fill ``records`` from previously produced per-event results.

        The single definition of the central merge: serial execution,
        pool tickets and checkpoint rehydration all land here.  Coverage
        is validated *before* any record is touched — a gap raises
        :class:`ShardResultMissing` with the full list of absent
        ``(site_index, kind)`` pairs and leaves ``records`` and the
        clock untouched, so callers can recover by recomputing.
        Entries then apply in event order: records fill in the same
        sequence and the world clock advances once by the elapsed times
        summed in trigger order (bit-identical whichever executor
        produced them).

        Plugin-variant entries (kind >= :data:`PLUGIN_KIND_BASE`) carry
        row tuples, not exchange results; they land in ``plugin_rows``
        and never create or touch a site record.
        """
        missing = [
            (event.site_index, event.kind)
            for event in events
            if (event.site_index, event.kind) not in replay
        ]
        if missing:
            raise ShardResultMissing(missing, source=source, shard_of=self._shard_of)
        elapsed_total = 0.0
        for event in events:
            result, elapsed = replay[(event.site_index, event.kind)]
            if event.kind >= PLUGIN_KIND_BASE:
                if plugin_rows is not None:
                    plugin_rows[(event.site_index, event.kind)] = result
            else:
                record = ensure_site_record(records, event.site_index, event.address)
                if event.kind == QUIC_EVENT:
                    record.quic = result
                else:
                    record.tcp = result
            elapsed_total += elapsed
            if entry_sink is not None:
                entry_sink.append((event.site_index, event.kind, result, elapsed))
        self.world.clock.advance(elapsed_total)

    def run_week(
        self,
        week: Week,
        vantage_id: str = "main-aachen",
        *,
        ip_version: int = 4,
        populations: Sequence[str] = ("cno", "toplist"),
        include_tcp: bool = False,
        quic_config: QuicScanConfig | None = None,
        tcp_config: TcpScanConfig | None = None,
        plugins: Sequence[str] | None = None,
        phase_stats: ScanPhaseStats | None = None,
        entry_sink: list | None = None,
        replay_entries: Sequence[tuple[int, int, object, float]] | None = None,
    ) -> "StoreWeeklyRun":
        """One weekly run, equal field-for-field to the reference loop.

        ``plugins`` selects the measurement plugins for the week
        (default: just the core ``ecn`` scan — byte-identical to the
        pre-plugin engine).  Plugin connection variants are scheduled
        after the core stream and their merged rows land on
        ``run.plugin_rows``; plugins with a ``finalize_run`` hook (e.g.
        ``trace``) run it after attribution.

        The site phase is: schedule, produce the week's entries
        (:meth:`_week_entries` — executed here, or collected from pool
        tickets), one central merge (:meth:`_apply_replay`), then
        attribution.  ``entry_sink`` collects the week's ``(site_index,
        kind, result, elapsed)`` entries in event order (what campaign
        checkpoints persist); ``replay_entries`` rehydrates the site
        phase from such entries instead of producing them.

        The run records into a columnar
        :class:`~repro.store.columns.ObservationStore` — attribution is
        O(sites) recording plus lazy index arrays, and observations are
        served as lazy views field-identical to the reference loop's
        objects (golden-tested by the ``objects`` leg of
        ``tests/differential.py``).
        """
        selection = resolve_plugins(tuple(plugins) if plugins is not None else None)
        world = self.world
        plan = self.plan_for(ip_version, populations)
        quic_config = quic_config or QuicScanConfig(ip_version=ip_version)
        tcp_config = tcp_config or TcpScanConfig(ip_version=ip_version)
        from repro.store.views import StoreWeeklyRun

        run = StoreWeeklyRun(week=week, vantage_id=vantage_id, ip_version=ip_version)

        # Phase 1: per-site exchanges, merged in reference trigger order.
        events, quic_capable = self._schedule(
            plan, week, vantage_id, include_tcp, selection
        )
        records = run.site_records
        plugin_rows: dict[tuple[int, int], tuple] = {}
        cache = self.exchange_cache
        cache_base = (
            cache.stats.snapshot()
            if phase_stats is not None and cache is not None
            else None
        )
        phase_start = perf_counter() if phase_stats is not None else 0.0
        telemetry = self.telemetry
        tracer = telemetry.tracer if telemetry is not None else None
        if tracer is not None:
            span_attrs = dict(week=str(week), events=len(events))
            if selection.names != DEFAULT_PLUGINS:
                span_attrs["plugins"] = ",".join(selection.names)
            site_span = tracer.begin("site", "phase", **span_attrs)
        else:
            site_span = None
        supervision = getattr(self, "supervision", None)
        sup_base = (
            supervision.snapshot()
            if supervision is not None and phase_stats is not None
            else None
        )
        if replay_entries is not None:
            replay = {
                (site_index, kind): (result, elapsed)
                for site_index, kind, result, elapsed in replay_entries
            }
            source = "site-phase replay"
        else:
            replay, source = self._week_entries(
                events, week,
                (vantage_id, ip_version, tuple(populations), include_tcp,
                 quic_config, tcp_config, selection.names),
            )
        self._apply_replay(
            events, replay, records,
            entry_sink=entry_sink, source=source, plugin_rows=plugin_rows,
        )
        if tracer is not None:
            tracer.end(site_span)
        if sup_base is not None:
            sup_now = supervision.snapshot()
            phase_stats.shard_retries += sup_now[0] - sup_base[0]
            phase_stats.shard_timeouts += sup_now[1] - sup_base[1]
            phase_stats.shard_failures += sup_now[2] - sup_base[2]
        if phase_stats is not None:
            now = perf_counter()
            phase_stats.site_phase_seconds += now - phase_start
            phase_start = now
            if cache_base is not None:
                hits, misses, uncacheable = cache.stats.snapshot()
                phase_stats.exchange_cache_hits += hits - cache_base[0]
                phase_stats.exchange_cache_misses += misses - cache_base[1]
                phase_stats.exchange_cache_uncacheable += uncacheable - cache_base[2]

        # Phase 2: attribute per-site results to domains.
        share = world.adoption_share(week)
        attr_span = (
            tracer.begin("attribution", "phase", week=str(week))
            if tracer is not None
            else None
        )
        self._attribute_store(run, plan, records, quic_capable, include_tcp, share)
        if tracer is not None:
            tracer.end(attr_span)
        self._attribute_plugins(run, selection, plugin_rows, telemetry)
        if phase_stats is not None:
            phase_stats.attribution_seconds += perf_counter() - phase_start

        for plugin in selection.finalizers:
            plugin.finalize_run(world, run, week, vantage_id, ip_version)
        return run

    def _attribute_store(
        self,
        run: "StoreWeeklyRun",
        plan: ScanPlan,
        records: dict,
        quic_capable: dict[int, bool],
        include_tcp: bool,
        share: float,
    ) -> None:
        """O(sites) recording into the run's store, no per-domain work."""
        store = ObservationStore(
            plan.columns,
            week=run.week,
            vantage_id=run.vantage_id,
            ip_version=run.ip_version,
            share=share,
        )
        for segment_index, segment in enumerate(plan.columns.segments):
            record = records.get(segment.site_index)
            capable = quic_capable[segment.site_index]
            store.record_site(
                segment_index,
                quic_capable=capable,
                quic=(record.quic if record is not None else None) if capable else None,
                tcp=record.tcp if (include_tcp and record is not None) else None,
            )
        run.attach(store)

    def _attribute_plugins(
        self,
        run: "StoreWeeklyRun",
        selection: PluginSelection,
        plugin_rows: dict[tuple[int, int], tuple],
        telemetry=None,
    ) -> None:
        """Merge per-variant rows into per-plugin tables on the run.

        Multi-variant plugins merge field-wise: the last variant in
        declaration order with a non-``None`` value for a field wins.
        """
        if not selection.row_plugins:
            return
        tracer = telemetry.tracer if telemetry is not None else None
        by_kind: dict[int, dict[int, tuple]] = {}
        for (site_index, kind), row in plugin_rows.items():
            by_kind.setdefault(kind, {})[site_index] = row
        for plugin in selection.row_plugins:
            span = (
                tracer.begin("plugin", "phase", plugin=plugin.name)
                if tracer is not None
                else None
            )
            width = len(plugin.fields)
            merged: dict[int, tuple] = {}
            for binding in selection.bindings:
                if binding.plugin is not plugin:
                    continue
                for site_index, row in by_kind.get(binding.kind, {}).items():
                    base = merged.get(site_index)
                    if base is None:
                        merged[site_index] = tuple(row)
                    else:
                        merged[site_index] = tuple(
                            row[i] if row[i] is not None else base[i]
                            for i in range(width)
                        )
            run.plugin_rows[plugin.name] = merged
            if telemetry is not None:
                telemetry.registry.add_counter(
                    f"plugin.{plugin.name}.rows", len(merged)
                )
            if tracer is not None:
                tracer.end(span)
