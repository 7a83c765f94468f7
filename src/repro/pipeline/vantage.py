"""Distributed cloud measurements with per-IP dedup (§4.3, §8).

The main vantage point deduplicates connections by IP and forwards one
viable domain per IP to each cloud instance; cloud results are rescaled
back to domain counts via the main vantage's domain-to-IP mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pipeline.runs import WeeklyRun
from repro.quic.connection import QuicConnectionResult
from repro.scanner.quic_scan import QuicScanConfig, scan_site_quic
from repro.util.weeks import Week
from repro.web.world import World


@dataclass
class ForwardedTarget:
    """One deduplicated (IP -> representative domain) scan order."""

    site_index: int
    ip: str
    domain: str
    mapped_domains: int  # QUIC domains this IP served at the main vantage


@dataclass
class VantageRun:
    """Results of one cloud vantage point."""

    vantage_id: str
    week: Week
    ip_version: int
    results: dict[int, QuicConnectionResult] = field(default_factory=dict)
    mapped_domains: dict[int, int] = field(default_factory=dict)
    failed_sites: list[int] = field(default_factory=list)

    # ------------------------------------------------------------------
    def total_mapped(self) -> int:
        return sum(self.mapped_domains.values())

    def mapped_where(self, predicate) -> int:
        """Mapped-domain count over sites whose result satisfies `predicate`."""
        return sum(
            self.mapped_domains[idx]
            for idx, result in self.results.items()
            if predicate(result)
        )


def forwarded_targets(main_run: WeeklyRun) -> list[ForwardedTarget]:
    """Per-IP dedup: the first viable domain per IP (factor-40 load cut)."""
    targets: dict[int, ForwardedTarget] = {}
    for obs in main_run.observations:
        if not obs.quic_available or obs.ip is None or obs.site_index < 0:
            continue
        if obs.population != "cno":
            continue
        entry = targets.get(obs.site_index)
        if entry is None:
            targets[obs.site_index] = ForwardedTarget(
                site_index=obs.site_index,
                ip=obs.ip,
                domain=obs.domain,
                mapped_domains=1,
            )
        else:
            entry.mapped_domains += 1
    return list(targets.values())


def run_vantage(
    world: World,
    vantage_id: str,
    targets: list[ForwardedTarget],
    week: Week,
    *,
    ip_version: int = 4,
) -> VantageRun:
    """Scan the forwarded targets from one cloud vantage point."""
    run = VantageRun(vantage_id=vantage_id, week=week, ip_version=ip_version)
    config = QuicScanConfig(ip_version=ip_version)
    for target in targets:
        site = world.sites[target.site_index]
        # Each cloud instance resolves the domain locally (§4.3); the
        # per-vantage site policy captures geo-DNS anomalies like wix.
        result = scan_site_quic(
            world, site, week, vantage_id, config, authority=f"www.{target.domain}"
        )
        run.results[site.index] = result
        run.mapped_domains[site.index] = target.mapped_domains
        if not result.connected:
            run.failed_sites.append(site.index)
    return run


def run_distributed(
    world: World,
    *,
    week: Week | None = None,
    ip_version: int = 4,
    vantage_ids: list[str] | None = None,
    main_run: WeeklyRun | None = None,
) -> dict[str, VantageRun]:
    """The full §8 distributed measurement.

    Returns per-vantage runs, including one for the main vantage point
    (converted to the same site-level representation).
    """
    week = week or (
        world.config.reference_week if ip_version == 4 else world.config.ipv6_week
    )
    if vantage_ids is None:
        vantage_ids = list(world.vantages)
    if main_run is None:
        # Site-first engine run: the per-IP dedup below then only pays
        # attribution, not another O(domains) resolution pass.
        main_run = world.scan_engine().run_week(
            week, "main-aachen", ip_version=ip_version, populations=("cno",)
        )
    targets = forwarded_targets(main_run)
    runs: dict[str, VantageRun] = {}
    for vantage_id in vantage_ids:
        if vantage_id == "main-aachen":
            runs[vantage_id] = _main_as_vantage_run(main_run, targets)
        else:
            runs[vantage_id] = run_vantage(
                world, vantage_id, targets, week, ip_version=ip_version
            )
    return runs


def _main_as_vantage_run(
    main_run: WeeklyRun, targets: list[ForwardedTarget]
) -> VantageRun:
    run = VantageRun(
        vantage_id=main_run.vantage_id,
        week=main_run.week,
        ip_version=main_run.ip_version,
    )
    for target in targets:
        record = main_run.site_records.get(target.site_index)
        if record is None or record.quic is None:
            continue
        run.results[target.site_index] = record.quic
        run.mapped_domains[target.site_index] = target.mapped_domains
    return run
