"""Typed parallel arrays over observation positions.

Two layers, split by what varies:

* :class:`DomainColumns` — one ``(ip family, populations)`` scan plan:
  a selection of the world's :class:`~repro.web.world.DomainTable`
  rows, one position per row, read in place for names, populations,
  lists, parking and ranks.  What the plan adds is week-invariant
  family attribution: each position's site and the per-site address
  and org.
  Filled **once per plan** (and therefore once per campaign);
  :func:`plan_columns` adds the per-site :class:`SiteSegment` arrays
  that encode the attribution fan-out in rank order.
* :class:`ObservationStore` — the per-run layer: a read-only view over
  the run's own site records, which the engine's central merge fills.
  Recording a run writes nothing here, and reading it is O(sites): a
  week's attempted domains of a segment are
  ``rank_positions[:attempted_count(share)]`` when its site has a QUIC
  result.  Analysis aggregates per site; a per-domain read goes
  through the plan's ``segment_of``/``rank_of`` columns to the same
  two facts.

The store never copies scan results: it reads the same
:class:`QuicConnectionResult` / :class:`TcpScanOutcome` objects the
site phase produced, which is what keeps store-backed runs
byte-identical to the object path.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.scanner.results import SiteScanRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quic.connection import QuicConnectionResult
    from repro.tcp.client import TcpScanOutcome
    from repro.web.world import DomainTable

#: Org attributed to unresolved / site-less domains (matches the
#: ``DomainObservation.org`` default).
UNKNOWN_ORG = "<unknown>"

#: Sentinel index: a position without a site, so without a segment.
NO_ROW = -1

#: The record a store reads for a site without a core event this week.
NO_EVENT = SiteScanRecord(site_index=NO_ROW, ip="")


class SiteSegment:
    """Week-invariant attribution arrays of one planned site.

    ``first`` is the site's first position in scan order (where its TCP
    exchange fires); ``rank_positions``/``sorted_ranks`` sort its
    positions by QUIC adoption rank, so the set of positions attempting
    QUIC at a weekly share is the prefix ``rank_positions[:k]`` with
    ``k`` found by bisection — no per-domain comparison at run time.
    """

    __slots__ = ("site_index", "first", "rank_positions", "sorted_ranks")

    def __init__(
        self, site_index: int, positions: Sequence[int], ranks: Sequence[float]
    ):
        self.site_index = site_index
        self.first = min(positions)
        by_rank = sorted(zip(ranks, positions, strict=True))
        self.sorted_ranks = array("d", map(itemgetter(0), by_rank))
        self.rank_positions = array("i", map(itemgetter(1), by_rank))

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


@dataclass(eq=False, repr=False, slots=True)
class DomainColumns:
    """One scan plan: a row selection of the world's domain table.

    Position ``p`` is ``table`` row ``rows[p]`` (ascending, so positions
    keep world order).  ``site_indexes`` holds each position's site in
    the plan's family (:data:`NO_ROW` when it has none); ``site_ips``
    and ``site_orgs`` hold every world site's family address and org.
    ``segments`` holds one :class:`SiteSegment` per
    attributed site, ordered by first position; ``segment_of`` maps a
    position to its segment index (:data:`NO_ROW` without a site) and
    ``rank_of`` to its index in that segment's rank order.
    """

    table: DomainTable
    rows: array
    site_indexes: array
    site_ips: list[str | None]
    site_orgs: list[str]
    segments: list[SiteSegment]
    segment_of: array
    rank_of: array
    _population_positions: dict[str, array] = field(default_factory=dict, init=False)
    _population_segments: dict[str | None, list[SiteSegment]] = field(
        default_factory=dict, init=False
    )

    @property
    def count(self) -> int:
        return len(self.rows)

    def ip(self, position: int) -> str | None:
        """The address ``position`` resolved to (``None``: unresolved)."""
        site = self.site_indexes[position]
        return self.site_ips[site] if site >= 0 else None

    def org(self, position: int) -> str:
        site = self.site_indexes[position]
        return self.site_orgs[site] if site >= 0 else UNKNOWN_ORG

    def population_positions(self, population: str) -> array:
        """Ascending positions of one population (cached) — the order
        the object path visits its domains in."""
        positions = self._population_positions.get(population)
        if positions is None:
            population_of = self.table.population
            positions = array(
                "i", [p for p, row in enumerate(self.rows) if population_of(row) == population]
            )
            self._population_positions[population] = positions
        return positions

    def population_segments(self, population: str | None) -> list[SiteSegment]:
        """The segment of each site with a member in ``population``
        (``None``: every position), in plan order (cached).

        A mixed segment is restricted to the population's members, with
        their ranks, so its ``attempted_count`` counts that population
        alone; every other one is the plan's own object, so a plan of
        one population (every campaign's) copies nothing.
        """
        segments = self._population_segments.get(population)
        if segments is None:
            segments = self.segments
            positions = self.population_positions(population) if population else None
            if positions is not None and len(positions) < self.count:
                segments = [
                    restricted
                    for segment in segments
                    if (restricted := self._restrict(segment, population)) is not None
                ]
            self._population_segments[population] = segments
        return segments

    def _restrict(self, segment: SiteSegment, population: str) -> SiteSegment | None:
        population_of, rows = self.table.population, self.rows
        members = [p for p in segment.rank_positions if population_of(rows[p]) == population]
        if not members:
            return None
        if len(members) == len(segment.rank_positions):
            return segment
        ranks = [segment.sorted_ranks[self.rank_of[p]] for p in members]
        return SiteSegment(segment.site_index, members, ranks)


def plan_columns(
    table: DomainTable,
    rows: array,
    site_indexes: array,
    site_ips: list[str | None],
    site_orgs: list[str],
) -> DomainColumns:
    """Assemble a scan plan's :class:`DomainColumns` from its selection.

    ``rows`` are the plan's ascending table rows and the other arguments
    its family attribution (the :class:`DomainColumns` fields).  Each
    attributed site's positions, with their table ranks, become its
    rank-sorted :class:`SiteSegment`, sites ordered by first position;
    the position → ``(segment, rank index)`` columns are filled here,
    once per plan.
    """
    groups: defaultdict[int, list[int]] = defaultdict(list)
    for position, index in enumerate(site_indexes):
        if index >= 0:
            groups[index].append(position)
    rank_at = table.ranks.__getitem__
    segments = [
        SiteSegment(site_index, positions, list(map(rank_at, map(rows.__getitem__, positions))))
        for site_index, positions in groups.items()
    ]
    segment_of = array("i", (NO_ROW,)) * len(rows)
    rank_of = array("i", bytes(4 * len(rows)))
    for index, segment in enumerate(segments):
        for rank, position in enumerate(segment.rank_positions):
            segment_of[position] = index
            rank_of[position] = rank
    return DomainColumns(
        table, rows, site_indexes, site_ips, site_orgs, segments, segment_of, rank_of
    )


class ObservationStore:
    """Read-only view of one weekly run over its site records.

    ``records`` is the run's own ``site_records`` dict (the same object,
    filled by the engine's central merge), so a week's results live in
    one place.  A segment's QUIC and TCP results are its site's record;
    its attempted domains are the rank prefix of length
    ``segment.attempted_count(share)`` when the site has a QUIC result,
    and none otherwise — exactly the object path's ``quic_attempted``
    semantics: a QUIC event fires only when some member's rank is under
    this week's adoption share.  :meth:`quic_sites` serves analysis per
    site; the per-position accessors serve the lazy views.
    """

    __slots__ = ("columns", "records", "week", "vantage_id", "ip_version", "share")

    def __init__(
        self,
        columns: DomainColumns,
        records: dict[int, SiteScanRecord],
        *,
        week,
        vantage_id: str,
        ip_version: int,
        share: float,
    ):
        self.columns = columns
        self.records = records
        self.week = week
        self.vantage_id = vantage_id
        self.ip_version = ip_version
        self.share = share

    def site_record(self, site_index: int) -> SiteScanRecord:
        """The site's record this week (:data:`NO_EVENT` without one)."""
        return self.records.get(site_index, NO_EVENT)

    # ------------------------------------------------------------------
    # Per-position accessors (what the lazy views read)
    # ------------------------------------------------------------------
    def quic_attempted_at(self, position: int) -> bool:
        columns = self.columns
        if self.site_record(columns.site_indexes[position]).quic is None:
            return False
        segment = columns.segments[columns.segment_of[position]]
        return segment.sorted_ranks[columns.rank_of[position]] < self.share

    def quic_at(self, position: int) -> "QuicConnectionResult | None":
        if not self.quic_attempted_at(position):
            return None
        return self.site_record(self.columns.site_indexes[position]).quic

    def tcp_at(self, position: int) -> "TcpScanOutcome | None":
        return self.site_record(self.columns.site_indexes[position]).tcp

    # ------------------------------------------------------------------
    # Site-grained reads (what analysis aggregates)
    # ------------------------------------------------------------------
    def attempted(self, segment: SiteSegment) -> int:
        """How many of ``segment``'s members attempted QUIC this week.

        ``segment`` is a plan segment or its restriction to one
        population (:meth:`DomainColumns.population_segments`); either
        bisects this week's share over the members it holds.
        """
        if self.site_record(segment.site_index).quic is None:
            return 0
        return segment.attempted_count(self.share)

    def quic_sites(
        self, population: str | None = None
    ) -> Iterator[tuple[SiteSegment, "QuicConnectionResult", int]]:
        """``(segment, result, attempted count)`` per site with a QUIC result.

        One tuple per site whose QUIC exchange covered at least one of
        ``population``'s members this week (``None``: every position):
        its ``count`` attempted members, ``segment.rank_positions[:count]``,
        all observed ``result``.  Sites come in plan order.
        """
        for segment in self.columns.population_segments(population):
            result = self.site_record(segment.site_index).quic
            if result is not None:
                count = segment.attempted_count(self.share)
                if count:
                    yield segment, result, count
