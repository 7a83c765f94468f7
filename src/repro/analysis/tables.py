"""Builders for Tables 1–7 of the paper's evaluation.

Each builder has one body over the QUIC units of
:mod:`repro.analysis.units`, weighted by the domains each stands for.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.analysis.aggregate import first_seen_order, org_ecn_counts, rank_map
from repro.analysis.classify import ValidationClass, validation_class_of
from repro.analysis.units import parked_flags, quic_units, resolution
from repro.pipeline.runs import WeeklyRun
from repro.tracebox.classify import PathImpairment
from repro.core.codepoints import ECN
from repro.web.paths import AS_ARELION


# ----------------------------------------------------------------------
# Table 1 — visible ECN mirroring and use
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table1Row:
    scope: str  # "Toplists" | "c/n/o"
    unit: str  # "Domains" | "IPs"
    total: int
    resolved: int
    quic: int
    mirroring: int
    use: int

    @property
    def mirroring_pct(self) -> float:
        return 100.0 * self.mirroring / self.quic if self.quic else 0.0

    @property
    def use_pct(self) -> float:
        return 100.0 * self.use / self.quic if self.quic else 0.0


def table1(run: WeeklyRun) -> list[Table1Row]:
    """Visible ECN mirroring/use for toplist and com/net/org domains."""
    rows: list[Table1Row] = []
    for population, scope in (("toplist", "Toplists"), ("cno", "c/n/o")):
        total, resolved, resolved_ips = resolution(run, population)
        quic = mirroring = use = 0
        quic_ips: set[str] = set()
        mirroring_ips: set[str] = set()
        use_ips: set[str] = set()
        for result, _site_index, ip, _org, domains, _ranked in quic_units(run, population):
            if result.connected:
                quic += domains
                quic_ips.add(ip)
            if result.mirroring:
                mirroring += domains
                mirroring_ips.add(ip)
            if result.server_set_ect:
                use += domains
                use_ips.add(ip)
        rows.append(
            Table1Row(
                scope=scope,
                unit="Domains",
                total=total,
                resolved=resolved,
                quic=quic,
                mirroring=mirroring,
                use=use,
            )
        )
        rows.append(
            Table1Row(
                scope=scope,
                unit="IPs",
                total=0,  # the paper leaves this cell empty
                resolved=len(resolved_ips),
                quic=len(quic_ips),
                mirroring=len(mirroring_ips),
                use=len(use_ips),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Tables 2/3 — providers of QUIC domains and their ECN behaviour
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProviderRow:
    org: str
    total: int
    total_rank: int
    mirroring: int
    mirroring_rank: int
    use: int
    use_rank: int


def _provider_table(run: WeeklyRun, population: str) -> list[ProviderRow]:
    counts = org_ecn_counts(run, population)
    totals = {c.org: c.total for c in counts}
    mirror = {c.org: c.mirroring for c in counts}
    use = {c.org: c.use for c in counts}
    total_ranks = rank_map(totals)
    mirror_ranks = rank_map(mirror)
    use_ranks = rank_map(use)
    rows = [
        ProviderRow(
            org=c.org,
            total=c.total,
            total_rank=total_ranks[c.org],
            mirroring=c.mirroring,
            mirroring_rank=mirror_ranks[c.org],
            use=c.use,
            use_rank=use_ranks[c.org],
        )
        for c in counts
    ]
    rows.sort(key=lambda r: r.total_rank)
    return rows


def table2(run: WeeklyRun) -> list[ProviderRow]:
    """Top providers of com/net/org QUIC domains (IPv4)."""
    return _provider_table(run, "cno")


def table3(run: WeeklyRun) -> list[ProviderRow]:
    """Top providers of toplist QUIC domains (IPv4)."""
    return _provider_table(run, "toplist")


# ----------------------------------------------------------------------
# Table 4 — ECN codepoint clearing per AS organization
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClearingRow:
    org: str
    cleared: int
    not_tested: int
    not_cleared: int


@dataclass(frozen=True)
class ClearingTable:
    rows: tuple[ClearingRow, ...]
    total_cleared: int
    total_not_tested: int
    total_not_cleared: int
    cleared_ips: int
    not_tested_ips: int
    not_cleared_ips: int
    #: Share of cleared domains attributable to AS 1299 (Arelion).
    arelion_share: float


def table4(run: WeeklyRun) -> ClearingTable:
    """Clearing on the forward path for non-mirroring QUIC hosts."""
    cleared: Counter = Counter()
    not_tested: Counter = Counter()
    not_cleared: Counter = Counter()
    cleared_ips: set[str] = set()
    not_tested_ips: set[str] = set()
    not_cleared_ips: set[str] = set()
    arelion_domains = 0
    total_cleared_domains = 0
    for result, site_index, ip, org, domains, _ranked in quic_units(run, "cno"):
        if not result.connected or result.mirroring or ip is None:
            continue
        summary = run.trace_for(site_index)
        if summary is None:
            not_tested[org] += domains
            not_tested_ips.add(ip)
            continue
        if summary.impairment in (
            PathImpairment.CLEARED,
            PathImpairment.REMARK_THEN_ZERO,
        ):
            cleared[org] += domains
            cleared_ips.add(ip)
            total_cleared_domains += domains
            if AS_ARELION in summary.culprit_candidates:
                arelion_domains += domains
        else:
            not_cleared[org] += domains
            not_cleared_ips.add(ip)
    # Sort org names first: set iteration order is hash-salted per
    # process, and a stable sort alone would leak that salt into the
    # ordering of tied rows (the table would differ run to run).
    orgs = sorted(set(cleared) | set(not_tested) | set(not_cleared))
    rows = tuple(
        sorted(
            (
                ClearingRow(
                    org=org,
                    cleared=cleared[org],
                    not_tested=not_tested[org],
                    not_cleared=not_cleared[org],
                )
                for org in orgs
            ),
            key=lambda r: -r.cleared,
        )
    )
    return ClearingTable(
        rows=rows,
        total_cleared=sum(cleared.values()),
        total_not_tested=sum(not_tested.values()),
        total_not_cleared=sum(not_cleared.values()),
        cleared_ips=len(cleared_ips),
        not_tested_ips=len(not_tested_ips),
        not_cleared_ips=len(not_cleared_ips),
        arelion_share=(
            arelion_domains / total_cleared_domains if total_cleared_domains else 0.0
        ),
    )


# ----------------------------------------------------------------------
# Table 5 — ECN validation results (IPv4 vs IPv6)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ValidationCell:
    ips: int
    domains: int


def _validation_counts(run: WeeklyRun) -> dict[ValidationClass, ValidationCell]:
    domains: Counter = Counter()
    ips: dict[ValidationClass, set[str]] = defaultdict(set)
    for result, _site_index, ip, _org, count, _ranked in quic_units(run, "cno"):
        if not result.connected:
            continue
        cls = validation_class_of(result)
        domains[cls] += count
        ips[cls].add(ip)
    return {
        cls: ValidationCell(ips=len(ips[cls]), domains=domains[cls])
        for cls in domains
    }


def table5(
    run_v4: WeeklyRun, run_v6: WeeklyRun | None = None
) -> dict[ValidationClass, dict[str, ValidationCell]]:
    """Validation classes with IP/domain counts per IP family."""
    result: dict[ValidationClass, dict[str, ValidationCell]] = {}
    v4 = _validation_counts(run_v4)
    v6 = _validation_counts(run_v6) if run_v6 is not None else {}
    for cls in ValidationClass:
        if cls is ValidationClass.UNAVAILABLE:
            continue
        cell4 = v4.get(cls, ValidationCell(0, 0))
        cell6 = v6.get(cls, ValidationCell(0, 0))
        if cell4.domains == 0 and cell6.domains == 0 and cls not in (
            ValidationClass.CAPABLE,
            ValidationClass.NO_MIRRORING,
        ):
            continue
        result[cls] = {"ipv4": cell4, "ipv6": cell6}
    return result


# ----------------------------------------------------------------------
# Table 6 — validation classes per provider
# ----------------------------------------------------------------------
def table6(
    run: WeeklyRun,
    classes: tuple[ValidationClass, ...] = (
        ValidationClass.CAPABLE,
        ValidationClass.UNDERCOUNT,
        ValidationClass.REMARK_ECT1,
    ),
) -> dict[ValidationClass, list[tuple[str, int]]]:
    """Per-class provider rankings (descending domain counts)."""
    per_class: dict[ValidationClass, Counter] = {cls: Counter() for cls in classes}
    for result, _site_index, _ip, org, domains, _ranked in quic_units(run, "cno"):
        cls = validation_class_of(result)
        if result.connected and cls in per_class:
            per_class[cls][org] += domains
    return {
        cls: sorted(counter.items(), key=lambda item: (-item[1], item[0]))
        for cls, counter in per_class.items()
    }


# ----------------------------------------------------------------------
# Table 7 — validation failures vs network impacts seen by tracebox
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RootCauseRow:
    validation: ValidationClass
    final_codepoint: str  # "ECT(0)->ECT(1)" | "Not-ECT" | "ECT(0)"
    ips: int
    domains: int


_FINAL_LABELS = {
    ECN.ECT1: "ECT(0)->ECT(1)",
    ECN.NOT_ECT: "Not-ECT",
    ECN.ECT0: "ECT(0)",
    ECN.CE: "CE",
}


def table7(run: WeeklyRun) -> list[RootCauseRow]:
    """Cross of validation failure class x trace-observed final codepoint."""
    cells: dict[tuple[ValidationClass, str], set[str]] = defaultdict(set)
    domain_counts: Counter = Counter()
    first: dict[tuple[ValidationClass, str], int] = {}
    for result, site_index, ip, _org, domains, ranked in quic_units(run, "cno"):
        if not result.connected or ip is None:
            continue
        cls = validation_class_of(result)
        if cls not in (ValidationClass.REMARK_ECT1, ValidationClass.UNDERCOUNT):
            continue
        summary = run.trace_for(site_index)
        if summary is None or summary.final_ecn is None:
            continue
        key = (cls, _FINAL_LABELS[summary.final_ecn])
        cells[key].add(ip)
        domain_counts[key] += domains
        position = min(ranked[:domains])
        first[key] = min(first.get(key, position), position)
    # Equal-domain rows keep the per-domain loop's first-seen order.
    cells = first_seen_order(cells, first)
    rows = [
        RootCauseRow(
            validation=cls,
            final_codepoint=label,
            ips=len(ips),
            domains=domain_counts[(cls, label)],
        )
        for (cls, label), ips in cells.items()
    ]
    rows.sort(key=lambda r: (r.validation.value, -r.domains))
    return rows


# ----------------------------------------------------------------------
# §5.1 — domain parking sanity check
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParkingSummary:
    quic_domains: int
    parked_quic_domains: int

    @property
    def parked_share(self) -> float:
        return (
            self.parked_quic_domains / self.quic_domains if self.quic_domains else 0.0
        )


def parking_summary(run: WeeklyRun) -> ParkingSummary:
    """Share of QUIC com/net/org domains related to domain parking."""
    quic = 0
    parked = 0
    # Parking is per domain but week-invariant: a plan column.
    flags = parked_flags(run, "cno")
    for result, _site_index, _ip, _org, domains, ranked in quic_units(run, "cno"):
        if result.connected:
            quic += domains
            parked += sum(map(flags.__getitem__, ranked[:domains]))
    return ParkingSummary(quic_domains=quic, parked_quic_domains=parked)
