"""Provider (AS organization) aggregation and ranking helpers.

:func:`org_ecn_counts` counts the QUIC units of a run
(:mod:`repro.analysis.units`), each weighted by its domains, and keys
orgs in first-seen order, so a store run's per-site counting equals a
reference-loop run's per-domain counting, org order included (pinned by
the table and synthetic site-order tests of
``tests/test_store_golden.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.analysis.units import quic_units
from repro.pipeline.runs import WeeklyRun


@dataclass(frozen=True)
class OrgCounts:
    """Per-organization domain counts with derived ranks filled in later."""

    org: str
    total: int
    mirroring: int
    use: int


def org_ecn_counts(run: WeeklyRun, population: str | None) -> list[OrgCounts]:
    """Total/mirroring/use counts per org over ``population``'s connected
    QUIC domains (``None``: every domain of the run)."""
    totals: Counter = Counter()
    mirroring: Counter = Counter()
    use: Counter = Counter()
    first: dict[str, int] = {}
    for result, _site_index, _ip, org, domains, ranked in quic_units(run, population):
        if not result.connected:
            continue
        totals[org] += domains
        if result.mirroring:
            mirroring[org] += domains
        if result.server_set_ect:
            use[org] += domains
        position = min(ranked[:domains])
        first[org] = min(first.get(org, position), position)
    return [
        OrgCounts(org=org, total=totals[org], mirroring=mirroring[org], use=use[org])
        for org in first_seen_order(totals, first)
    ]


def first_seen_order(counts: dict, first: dict) -> dict:
    """``counts`` re-keyed in ascending ``first[key]`` order.

    Site-grained aggregation adds whole sites at a time; ordering keys
    by the earliest position counted for them restores the insertion
    order of a per-domain loop in position order.
    """
    return {key: counts[key] for key in sorted(counts, key=first.__getitem__)}


def rank_map(values: dict[str, int]) -> dict[str, int]:
    """1-based dense ranks, ties broken by name for determinism."""
    ordered = sorted(values.items(), key=lambda item: (-item[1], item[0]))
    ranks: dict[str, int] = {}
    for position, (org, _count) in enumerate(ordered, start=1):
        ranks[org] = position
    return ranks
