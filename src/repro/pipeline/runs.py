"""One weekly measurement run (the paper's Friday scans, §4).

Per-domain results are derived from per-site scans: hosts on one IP
behave identically (the assumption the paper validates in §4.4 and
exploits for its cloud measurements), so the simulator scans each IP
once per week and attributes the outcome to every domain it serves.

:func:`run_weekly_scan` executes through the site-first
:class:`~repro.pipeline.engine.ScanEngine`; the original per-domain loop
is kept as :func:`run_weekly_scan_reference` — it defines the scan
semantics and anchors the golden equivalence test.  Analysis counts
either run through :mod:`repro.analysis.units`: a reference run's
observations become weight-1 units, so the same builder bodies that
count a store run per site are checked against per-domain truth.

The per-site records below (:func:`ensure_site_record` filling
``WeeklyRun.site_records``) are also the unit of crash recovery: a
week's ordered ``(site_index, kind, result, elapsed)`` site-phase
entries are what campaign checkpoints persist and what supervised
ticket retries re-produce byte-identically
(:mod:`repro.pipeline.checkpoint`, docs/robustness.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.validation import ValidationOutcome
from repro.netsim.clock import Clock
from repro.scanner.quic_scan import QuicScanConfig, scan_site_quic
from repro.scanner.results import DomainObservation, SiteScanRecord
from repro.scanner.tcp_scan import TcpScanConfig, scan_site_tcp
from repro.tracebox.classify import TraceSummary, classify_trace
from repro.tracebox.probe import trace_site
from repro.tracebox.sampling import TraceSampler
from repro.util.rng import RngStream
from repro.util.weeks import Week
from repro.web.world import World


@dataclass
class WeeklyRun:
    """All observations of one (week, vantage, IP family) run."""

    week: Week
    vantage_id: str
    ip_version: int
    observations: list[DomainObservation] = field(default_factory=list)
    site_records: dict[int, SiteScanRecord] = field(default_factory=dict)
    traces: dict[int, TraceSummary] = field(default_factory=dict)
    trace_sampler: TraceSampler | None = None
    #: Per-plugin measurement rows: plugin name -> site index -> the
    #: plugin's merged field tuple (see :mod:`repro.plugins`).
    plugin_rows: dict[str, dict[int, tuple]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def quic_domains(self) -> list[DomainObservation]:
        return [obs for obs in self.observations if obs.quic_available]

    def observations_for(self, population: str) -> list[DomainObservation]:
        return [obs for obs in self.observations if obs.population == population]

    def trace_for(self, site_index: int) -> TraceSummary | None:
        return self.traces.get(site_index)


def ensure_site_record(
    records: dict[int, SiteScanRecord], site_index: int, ip: str
) -> SiteScanRecord:
    """Get-or-create the per-site record (shared by QUIC and TCP scans)."""
    record = records.get(site_index)
    if record is None:
        record = SiteScanRecord(site_index=site_index, ip=ip)
        records[site_index] = record
    return record


def site_stream(
    world: World, week: Week, vantage_id: str, ip_version: int, site_index: int, kind: str
) -> RngStream:
    """The RNG substream of one site exchange (``kind``: ``quic``, ``tcp``
    or a plugin variant's ``plugin/variant`` tag).

    Seeded only from what identifies the exchange, so the engine, every
    pool partition and the reference loop draw identically.
    """
    name = f"site-scan/{week}/{vantage_id}/v{ip_version}/{site_index}/{kind}"
    return RngStream(world.config.seed, name)


def run_weekly_scan(
    world: World,
    week: Week,
    vantage_id: str = "main-aachen",
    *,
    ip_version: int = 4,
    populations: tuple[str, ...] = ("cno", "toplist"),
    include_tcp: bool = False,
    quic_config: QuicScanConfig | None = None,
    tcp_config: TcpScanConfig | None = None,
    plugins: tuple[str, ...] | None = None,
    telemetry=None,
) -> WeeklyRun:
    """Scan every domain of the selected populations for one week.

    ``plugins`` selects the measurement plugins to run alongside the
    core scan (default: just ``ecn``); see :mod:`repro.plugins`.  The
    observations are served from the columnar :mod:`repro.store` as
    lazy views, field-identical to :func:`run_weekly_scan_reference`.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) wraps the run in a
    ``week`` span with ``site``/``attribution`` phase children, and the
    week publishes its phase seconds and exchange-cache counters into
    the registry as a campaign week does.  The shared engine's
    telemetry attribute is restored afterwards.
    """
    engine = world.scan_engine()
    prior_telemetry = engine.telemetry
    tracer = None
    if telemetry is not None:
        engine.telemetry = telemetry
        tracer = telemetry.tracer
    week_span = (
        tracer.begin("week", "campaign", week=str(week), resumed=False)
        if tracer is not None
        else None
    )
    try:
        return engine.run_week(
            week,
            vantage_id,
            ip_version=ip_version,
            populations=populations,
            include_tcp=include_tcp,
            quic_config=quic_config,
            tcp_config=tcp_config,
            plugins=plugins,
        )
    finally:
        if tracer is not None:
            tracer.end(week_span)
        engine.telemetry = prior_telemetry


def run_weekly_scan_reference(
    world: World,
    week: Week,
    vantage_id: str = "main-aachen",
    *,
    ip_version: int = 4,
    populations: tuple[str, ...] = ("cno", "toplist"),
    include_tcp: bool = False,
    quic_config: QuicScanConfig | None = None,
    tcp_config: TcpScanConfig | None = None,
    run_tracebox: bool = False,
) -> WeeklyRun:
    """The defining per-domain scan loop (slow; for equivalence testing).

    Kept verbatim in structure so the engine can be compared against
    it, and the only producer of eager :class:`DomainObservation`
    objects — the oracle the store's lazy views are golden-tested
    against.  Each site exchange runs on its per-site substream
    (:func:`site_stream`) and a private clock; the world clock advances
    once by the elapsed times summed in trigger order, before tracing.
    ``run_tracebox`` traces sampled abnormal sites like the ``trace``
    plugin does.  Production code calls :func:`run_weekly_scan`.
    """
    quic_config = quic_config or QuicScanConfig(ip_version=ip_version)
    tcp_config = tcp_config or TcpScanConfig(ip_version=ip_version)
    run = WeeklyRun(week=week, vantage_id=vantage_id, ip_version=ip_version)
    records = run.site_records
    elapsed_total = 0.0

    def scan(scan_site, config, site, domain, kind):
        nonlocal elapsed_total
        clock = Clock()
        result = scan_site(
            world,
            site,
            week,
            vantage_id,
            config,
            authority=f"www.{domain.name}",
            rng=site_stream(world, week, vantage_id, ip_version, site.index, kind),
            clock=clock,
        )
        elapsed_total += clock.now
        return result

    for domain in world.domains:
        if domain.population not in populations:
            continue
        address = world.resolve_address(domain.name, family=ip_version)
        obs = DomainObservation(
            domain=domain.name,
            population=domain.population,
            lists=domain.lists,
            parked=domain.parked,
            resolved=address is not None,
            ip=address,
        )
        if address is None:
            run.observations.append(obs)
            continue
        site = world.site_by_ip(address)
        if site is None:  # defensive: IP without a registered host
            run.observations.append(obs)
            continue
        obs.site_index = site.index
        asn = world.prefixes.lookup(site.ip)
        obs.org = world.asorg.org_for(asn)

        policy = world.site_policy(site, vantage_id)
        wants_quic = (
            policy.reachable
            and policy.quic_profile is not None
            and world.domain_has_quic_listener(domain, week)
        )
        if wants_quic:
            obs.quic_attempted = True
            record = ensure_site_record(records, site.index, address)
            if record.quic is None:
                record.quic = scan(scan_site_quic, quic_config, site, domain, "quic")
            obs.quic = record.quic
        if include_tcp:
            record = ensure_site_record(records, site.index, address)
            if record.tcp is None:
                record.tcp = scan(scan_site_tcp, tcp_config, site, domain, "tcp")
            obs.tcp = record.tcp
        run.observations.append(obs)

    world.clock.advance(elapsed_total)
    if run_tracebox:
        _run_traces(world, week, vantage_id, ip_version, run)
    return run


def _run_traces(
    world: World, week: Week, vantage_id: str, ip_version: int, run: WeeklyRun
) -> None:
    """Trace the paths of abnormal hosts (per-IP once, 20 % sampling)."""
    sampler = TraceSampler(week=week)
    run.trace_sampler = sampler
    for obs in run.observations:
        if not _is_abnormal(obs):
            continue
        if obs.ip is None or obs.site_index < 0:
            continue
        if not sampler.should_trace(obs.ip, obs.domain):
            continue
        site = world.sites[obs.site_index]
        result = trace_site(
            world, site, week, vantage_id, ip_version=ip_version
        )
        run.traces[site.index] = classify_trace(result)


def _is_abnormal(obs: DomainObservation) -> bool:
    """Abnormal transport behaviour triggers a network trace (§4.2)."""
    if obs.quic is None or not obs.quic.connected:
        return False
    return obs.quic.validation_outcome is not ValidationOutcome.CAPABLE
