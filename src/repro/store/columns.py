"""Typed parallel arrays over observation positions.

Two layers, split by what varies:

* :class:`DomainColumns` — everything the object path copied into every
  :class:`DomainObservation` that is in fact *week-invariant* for one
  ``(ip family, populations)`` scan plan: domain names, populations,
  list memberships, parked/resolved flags, resolved addresses, org
  attribution, site indices.  Filled **once per plan** (and therefore
  once per campaign) by the plan's column passes over the world's
  domain and site tables; :func:`plan_columns` adds the per-site
  :class:`SiteSegment` arrays that encode the attribution fan-out in
  rank order.
* :class:`ObservationStore` — the per-run layer: one result row per
  planned site plus the week's attempted-count per segment.  Recording
  a run is O(sites), and so is reading it: a week's attempted domains
  of segment ``i`` are ``rank_positions[:quic_counts[i]]``.  Analysis
  aggregates per site; a per-domain read goes through the plan's
  ``segment_of``/``rank_of`` columns to the same two facts.

The store never copies scan results: rows reference the same
:class:`QuicConnectionResult` / :class:`TcpScanOutcome` objects the
site phase produced, which is what keeps store-backed runs
byte-identical to the object path.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
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

    A site owns one address per family, so every member of a segment
    shares the site's ``ip`` and ``org`` columns.
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
    """Week-invariant per-position columns of one scan plan.

    One entry per planned position (world order): ``domains``,
    ``populations``, ``lists``, ``parked``/``resolved`` flags, ``ips``
    (``None`` when unresolved), ``orgs`` (:data:`UNKNOWN_ORG` when the
    position has no site) and ``site_indexes`` (:data:`NO_ROW` when it
    has none).  ``segments`` holds one :class:`SiteSegment` per attributed
    site, ordered by first position; ``segment_of`` maps a position to
    its segment index (:data:`NO_ROW` without a site) and ``rank_of``
    to its index in that segment's rank order.
    """

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
        "segment_of",
        "rank_of",
        "_population_positions",
        "_population_segments",
    )

    def __init__(
        self,
        *,
        domains: list[str],
        populations: list[str],
        lists: list[tuple[str, ...]],
        parked: bytearray,
        resolved: bytearray,
        ips: list[str | None],
        orgs: list[str],
        site_indexes: array,
        segments: list[SiteSegment],
        segment_of: array,
        rank_of: array,
    ):
        self.count = len(domains)
        self.domains = domains
        self.populations = populations
        self.lists = lists
        self.parked = parked
        self.resolved = resolved
        self.ips = ips
        self.orgs = orgs
        self.site_indexes = site_indexes
        self.segments = segments
        self.segment_of = segment_of
        self.rank_of = rank_of
        self._population_positions: dict[str, array] = {}
        self._population_segments: dict[str | None, list[tuple[int, SiteSegment]]] = {}

    def population_positions(self, population: str) -> array:
        """Ascending positions of one population (cached) — the order
        the object path visits its domains in."""
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

    def population_segments(self, population: str | None) -> list[tuple[int, SiteSegment]]:
        """``(segment index, segment)`` per site with a member in
        ``population`` (``None``: every position), in plan order (cached).

        A mixed segment is restricted to the population's members, with
        their ranks, so its ``attempted_count`` counts that population
        alone; every other one is the plan's own object, so a plan of
        one population (every campaign's) copies nothing.
        """
        pairs = self._population_segments.get(population)
        if pairs is None:
            pairs = list(enumerate(self.segments))
            positions = self.population_positions(population) if population else None
            if positions is not None and len(positions) < self.count:
                pairs = [
                    (index, restricted)
                    for index, segment in pairs
                    if (restricted := self._restrict(segment, population)) is not None
                ]
            self._population_segments[population] = pairs
        return pairs

    def _restrict(self, segment: SiteSegment, population: str) -> SiteSegment | None:
        members = [p for p in segment.positions if self.populations[p] == population]
        if not members:
            return None
        if len(members) == len(segment.positions):
            return segment
        ranks = [segment.sorted_ranks[self.rank_of[p]] for p in members]
        return SiteSegment(segment.site_index, members, ranks)


def plan_columns(groups: dict[int, tuple[list[int], list[float]]], **columns) -> DomainColumns:
    """Assemble a scan plan's :class:`DomainColumns` from its passes.

    ``columns`` are the per-position lists the plan build filled (the
    :class:`DomainColumns` keyword fields except the segment ones);
    ``groups`` maps each attributed site index to its ``(positions,
    ranks)`` — ascending positions, sites ordered by first
    position — and becomes the site's rank-sorted :class:`SiteSegment`.
    The position → ``(segment, rank index)`` columns are filled here,
    once per plan.
    """
    segments = [
        SiteSegment(site_index, positions, ranks)
        for site_index, (positions, ranks) in groups.items()
    ]
    count = len(columns["domains"])
    segment_of = array("i", (NO_ROW,)) * count
    rank_of = array("i", bytes(4 * count))
    for index, segment in enumerate(segments):
        for rank, position in enumerate(segment.rank_positions):
            segment_of[position] = index
            rank_of[position] = rank
    return DomainColumns(segments=segments, segment_of=segment_of, rank_of=rank_of, **columns)


class ObservationStore:
    """Columnar record of one weekly run.

    The site phase is recorded once per planned site
    (:meth:`record_site`, O(sites) per run) and nothing per position.
    Segment ``i``'s attempted domains are its rank prefix of length
    ``quic_counts[i]`` (zero unless the site is QUIC-capable) — exactly
    the object path's ``quic_attempted`` semantics: attempted iff the
    site is QUIC-capable and the domain's rank is under this week's
    adoption share.  :meth:`quic_sites` serves analysis per site; the
    per-position accessors serve the lazy views.
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

    # ------------------------------------------------------------------
    # Per-position accessors (what the lazy views read)
    # ------------------------------------------------------------------
    def quic_attempted_at(self, position: int) -> bool:
        segment = self.columns.segment_of[position]
        return segment >= 0 and self.columns.rank_of[position] < self.quic_counts[segment]

    def quic_at(self, position: int) -> "QuicConnectionResult | None":
        if not self.quic_attempted_at(position):
            return None
        return self.quic_results[self.columns.segment_of[position]]

    def tcp_at(self, position: int) -> "TcpScanOutcome | None":
        segment = self.columns.segment_of[position]
        return self.tcp_results[segment] if segment >= 0 else None

    # ------------------------------------------------------------------
    # Site-grained reads (what analysis aggregates)
    # ------------------------------------------------------------------
    def attempted(self, segment_index: int, segment: SiteSegment) -> int:
        """How many of ``segment``'s members attempted QUIC this week.

        ``segment`` is the plan's segment ``segment_index`` or its
        restriction to one population
        (:meth:`DomainColumns.population_segments`); the restricted
        count re-bisects this week's share over the members it kept.
        """
        count = self.quic_counts[segment_index]
        if count and segment is not self.columns.segments[segment_index]:
            count = segment.attempted_count(self.share)
        return count

    def quic_sites(
        self, population: str | None = None
    ) -> Iterator[tuple[SiteSegment, "QuicConnectionResult", int]]:
        """``(segment, result, attempted count)`` per site with a QUIC result.

        One tuple per site whose QUIC exchange covered at least one of
        ``population``'s members this week (``None``: every position):
        its ``count`` attempted members, ``segment.rank_positions[:count]``,
        all observed ``result``.  Sites come in plan order.
        """
        results = self.quic_results
        for index, segment in self.columns.population_segments(population):
            result = results[index]
            if result is not None:
                count = self.attempted(index, segment)
                if count:
                    yield segment, result, count
