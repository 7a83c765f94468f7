"""Typed parallel arrays over observation positions.

Two layers, split by what varies:

* :class:`DomainColumns` — everything the object path copied into every
  :class:`DomainObservation` that is in fact *week-invariant* for one
  ``(ip family, populations)`` scan plan: domain names, populations,
  list memberships, parked/resolved flags, resolved addresses, org
  attribution, site indices.  Built **once per plan** (and therefore
  once per campaign) from the plan's prototype tuples, alongside
  per-site :class:`SiteSegment` arrays that encode the attribution
  fan-out in rank order.
* :class:`ObservationStore` — the per-run layer: one result row per
  planned site plus the week's attempted-count per segment.  Recording
  a run is O(sites); the per-position index arrays that make
  ``position -> site row`` an O(1) lookup are built lazily, only when
  something actually reads per-domain data.

The store never copies scan results: rows reference the same
:class:`QuicConnectionResult` / :class:`TcpScanOutcome` objects the
site phase produced, which is what keeps store-backed runs
byte-identical to the object path.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.engine import ScanPlan, SitePlan
    from repro.quic.connection import QuicConnectionResult
    from repro.tcp.client import TcpScanOutcome

#: Org attributed to unresolved / site-less domains (matches the
#: ``DomainObservation.org`` default).
UNKNOWN_ORG = "<unknown>"

#: Sentinel row index: position is not attributed (no site / not
#: attempted this week).
NO_ROW = -1


class SiteSegment:
    """Week-invariant attribution arrays of one planned site.

    ``positions`` keeps the plan's scan order (the TCP fan-out order);
    ``rank_positions``/``sorted_ranks`` re-sort the same positions by
    QUIC adoption rank, so the set of positions attempting QUIC at a
    weekly share is the prefix ``rank_positions[:k]`` with ``k``
    found by bisection — no per-domain comparison at run time.
    """

    __slots__ = ("site_index", "positions", "rank_positions", "sorted_ranks")

    def __init__(
        self, site_index: int, positions: Sequence[int], ranks: Sequence[float]
    ):
        self.site_index = site_index
        self.positions = array("q", positions)
        by_rank = sorted(zip(ranks, positions, strict=True))
        self.sorted_ranks = array("d", (pair[0] for pair in by_rank))
        self.rank_positions = array("q", (pair[1] for pair in by_rank))

    def attempted_count(self, share: float) -> int:
        """How many of this site's domains want QUIC at ``share``.

        The trigger rule is ``rank < share`` (strict), hence
        ``bisect_left``.
        """
        return bisect_left(self.sorted_ranks, share)

    def quic_trigger_candidates(self) -> list[tuple[float, int]]:
        """Prefix-minimum records of the rank-sorted positions.

        A candidate ``(rank, position)`` means: once the weekly adoption
        share exceeds ``rank`` (strictly), ``position`` is the earliest
        position of this site wanting QUIC — until the next candidate's
        rank is exceeded too.  The site's QUIC exchange fires at its
        earliest eligible position, so the week's trigger is exactly the
        last candidate whose rank is below the share.  The scan engine
        merges these (week-invariant, position-sortable) candidates into
        its pre-ordered site-event stream instead of sorting events per
        week.
        """
        best: int | None = None
        candidates: list[tuple[float, int]] = []
        for rank, position in zip(self.sorted_ranks, self.rank_positions, strict=True):
            if best is None or position < best:
                best = position
                candidates.append((rank, position))
        return candidates


class DomainColumns:
    """Week-invariant per-position columns of one scan plan."""

    __slots__ = (
        "count",
        "domains",
        "populations",
        "lists",
        "parked",
        "resolved",
        "ips",
        "orgs",
        "site_indexes",
        "segments",
        "_population_positions",
    )

    def __init__(self, protos: Sequence[tuple], sites: Sequence["SitePlan"]):
        n = len(protos)
        self.count = n
        domains: list[str] = []
        populations: list[str] = []
        lists: list[tuple[str, ...]] = []
        parked = bytearray(n)
        resolved = bytearray(n)
        ips: list[str | None] = [None] * n
        orgs: list[str] = [UNKNOWN_ORG] * n
        site_indexes = array("q", (NO_ROW,)) * n
        for position, proto in enumerate(protos):
            domains.append(proto[0])
            populations.append(proto[1])
            lists.append(proto[2])
            if proto[3]:
                parked[position] = 1
            if proto[4]:
                resolved[position] = 1
                if len(proto) > 5:
                    ips[position] = proto[5]
                if len(proto) > 6:
                    orgs[position] = proto[6]
                    site_indexes[position] = proto[7]
        self.domains = domains
        self.populations = populations
        self.lists = lists
        self.parked = parked
        self.resolved = resolved
        self.ips = ips
        self.orgs = orgs
        self.site_indexes = site_indexes
        self.segments = [
            SiteSegment(site.site_index, site.positions, site.ranks) for site in sites
        ]
        self._population_positions: dict[str, array] = {}

    def population_positions(self, population: str) -> array:
        """Ascending positions of one population (cached).

        Ascending order matters: analysis fast paths iterate these and
        must visit domains in exactly the object path's order so that
        insertion-ordered aggregations (Counters, first-seen dicts)
        come out identical.
        """
        positions = self._population_positions.get(population)
        if positions is None:
            positions = array(
                "q",
                (
                    position
                    for position, pop in enumerate(self.populations)
                    if pop == population
                ),
            )
            self._population_positions[population] = positions
        return positions


def plan_columns(plan: "ScanPlan") -> DomainColumns:
    """The plan's :class:`DomainColumns`, built on first use.

    Cached on the plan itself, so every run of a campaign — and every
    engine sharing the plan cache — pays the column build exactly once.
    """
    columns = plan.columns
    if columns is None:
        columns = DomainColumns(plan.protos, plan.sites)
        plan.columns = columns
    return columns


class ObservationStore:
    """Columnar record of one weekly run.

    The site phase is recorded once per planned site
    (:meth:`record_site`, O(sites) per run); the per-position
    ``quic_row`` / ``tcp_row`` index arrays — *attribution as array
    indexing* — materialise lazily on first per-domain access.  A row
    value of :data:`NO_ROW` means "no result at this position", which
    for QUIC doubles as "not attempted" (exactly the object path's
    ``quic_attempted`` semantics: attempted iff the site is QUIC-capable
    and the domain's rank is under this week's adoption share).
    """

    __slots__ = (
        "columns",
        "week",
        "vantage_id",
        "ip_version",
        "share",
        "quic_results",
        "quic_counts",
        "tcp_results",
        "plugin_columns",
        "_quic_row",
        "_tcp_row",
    )

    def __init__(
        self,
        columns: DomainColumns,
        *,
        week,
        vantage_id: str,
        ip_version: int,
        share: float,
    ):
        self.columns = columns
        self.week = week
        self.vantage_id = vantage_id
        self.ip_version = ip_version
        self.share = share
        segment_count = len(columns.segments)
        #: Per-segment QUIC result (None: not capable / nothing attempted).
        self.quic_results: list["QuicConnectionResult | None"] = [None] * segment_count
        #: Per-segment count of attempted positions this week.
        self.quic_counts = array("q", bytes(8 * segment_count))
        #: Per-segment TCP result (None unless the run included TCP).
        self.tcp_results: list["TcpScanOutcome | None"] = [None] * segment_count
        #: Per-plugin measurement columns: plugin name -> field name ->
        #: one value per site segment (None where the plugin produced
        #: no row).  Filled by :meth:`add_plugin_columns`.
        self.plugin_columns: dict[str, dict[str, list]] = {}
        self._quic_row: array | None = None
        self._tcp_row: array | None = None

    # ------------------------------------------------------------------
    # Recording (the attribution phase)
    # ------------------------------------------------------------------
    def record_site(
        self,
        segment_index: int,
        *,
        quic_capable: bool,
        quic: "QuicConnectionResult | None",
        tcp: "TcpScanOutcome | None",
    ) -> None:
        """Record one site's week: a couple of stores and one bisect."""
        if quic_capable:
            self.quic_counts[segment_index] = self.columns.segments[
                segment_index
            ].attempted_count(self.share)
            self.quic_results[segment_index] = quic
        if tcp is not None:
            self.tcp_results[segment_index] = tcp

    def add_plugin_columns(self, name: str, columns: dict[str, list]) -> None:
        """Attach one plugin's segment-aligned measurement columns.

        ``columns`` maps field name to one value per site segment (in
        segment order, ``None`` where the plugin produced no row for
        that site).  Column lengths must match the segment count.
        """
        segment_count = len(self.columns.segments)
        for field_name, values in columns.items():
            if len(values) != segment_count:
                raise ValueError(
                    f"plugin {name!r} column {field_name!r} has "
                    f"{len(values)} values for {segment_count} segments"
                )
        self.plugin_columns[name] = columns

    # ------------------------------------------------------------------
    # Lazy per-position index
    # ------------------------------------------------------------------
    def _build_rows(self) -> None:
        n = self.columns.count
        quic_row = array("q", (NO_ROW,)) * n
        tcp_row = array("q", (NO_ROW,)) * n
        quic_counts = self.quic_counts
        tcp_results = self.tcp_results
        for segment_index, segment in enumerate(self.columns.segments):
            attempted = quic_counts[segment_index]
            if attempted:
                for position in segment.rank_positions[:attempted]:
                    quic_row[position] = segment_index
            if tcp_results[segment_index] is not None:
                for position in segment.positions:
                    tcp_row[position] = segment_index
        self._quic_row = quic_row
        self._tcp_row = tcp_row

    @property
    def quic_row(self) -> array:
        """position -> segment row of its QUIC result (:data:`NO_ROW` if none)."""
        if self._quic_row is None:
            self._build_rows()
        return self._quic_row

    @property
    def tcp_row(self) -> array:
        """position -> segment row of its TCP result (:data:`NO_ROW` if none)."""
        if self._tcp_row is None:
            self._build_rows()
        return self._tcp_row

    # ------------------------------------------------------------------
    # Per-position accessors (what the lazy views read)
    # ------------------------------------------------------------------
    def quic_at(self, position: int) -> "QuicConnectionResult | None":
        row = self.quic_row[position]
        return self.quic_results[row] if row >= 0 else None

    def quic_attempted_at(self, position: int) -> bool:
        return self.quic_row[position] >= 0

    def tcp_at(self, position: int) -> "TcpScanOutcome | None":
        row = self.tcp_row[position]
        return self.tcp_results[row] if row >= 0 else None

    # ------------------------------------------------------------------
    # Column-native helpers (analysis fast paths)
    # ------------------------------------------------------------------
    def quic_flag_rows(self) -> list[tuple[bool, bool, bool]]:
        """Per-segment ``(available, mirroring, use)`` flags.

        One tuple per site row instead of one property chase per domain
        — the fan-in that makes column-native aggregation cheap.
        """
        return [
            (False, False, False)
            if result is None
            else (result.connected, result.mirroring, result.server_set_ect)
            for result in self.quic_results
        ]

    def positions_for(self, population: str) -> array:
        return self.columns.population_positions(population)

    def iter_quic_positions(self, positions: Iterable[int] | None = None):
        """Yield ``(position, result)`` for attributed QUIC positions."""
        quic_row = self.quic_row
        quic_results = self.quic_results
        if positions is None:
            positions = range(self.columns.count)
        for position in positions:
            row = quic_row[position]
            if row >= 0:
                yield position, quic_results[row]
