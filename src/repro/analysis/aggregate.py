"""Provider (AS organization) aggregation and ranking helpers.

Every aggregation here accepts plain observation lists or a
store-backed :class:`~repro.store.views.StoreObservations` slice.
:func:`org_ecn_counts` aggregates a store slice per site — one result
and one attempted count per site, weighted by that count — and is
pinned equal to the per-observation loop by the table and synthetic
site-order tests of ``tests/test_store_golden.py``, first-seen org
order included.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.scanner.results import DomainObservation
from repro.store.views import store_slice


@dataclass(frozen=True)
class OrgCounts:
    """Per-organization domain counts with derived ranks filled in later."""

    org: str
    total: int
    mirroring: int
    use: int


def count_by_org(
    observations: Iterable[DomainObservation],
    *,
    predicate: Callable[[DomainObservation], bool] | None = None,
) -> Counter:
    """Count observations per org, optionally filtered."""
    counter: Counter = Counter()
    for obs in observations:
        if predicate is None or predicate(obs):
            counter[obs.org] += 1
    return counter


def org_ecn_counts(observations: Iterable[DomainObservation]) -> list[OrgCounts]:
    """Total/mirroring/use counts per org over QUIC-capable observations."""
    totals: Counter = Counter()
    mirroring: Counter = Counter()
    use: Counter = Counter()
    sliced = store_slice(observations)
    if sliced is not None:
        store, population = sliced
        orgs = store.columns.orgs
        first: dict[str, int] = {}
        for segment, result, count in store.quic_sites(population):
            if not result.connected:
                continue
            org = orgs[segment.positions[0]]
            totals[org] += count
            if result.mirroring:
                mirroring[org] += count
            if result.server_set_ect:
                use[org] += count
            position = min(segment.rank_positions[:count])
            first[org] = min(first.get(org, position), position)
        totals = first_seen_order(totals, first)
    else:
        for obs in observations:
            if not obs.quic_available:
                continue
            totals[obs.org] += 1
            if obs.mirroring:
                mirroring[obs.org] += 1
            if obs.uses_ecn:
                use[obs.org] += 1
    return [
        OrgCounts(org=org, total=totals[org], mirroring=mirroring[org], use=use[org])
        for org in totals
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


def distinct_ips(
    observations: Iterable[DomainObservation],
    *,
    predicate: Callable[[DomainObservation], bool] | None = None,
) -> set[str]:
    """The set of server IPs behind the (filtered) observations."""
    ips: set[str] = set()
    for obs in observations:
        if obs.ip is None:
            continue
        if predicate is None or predicate(obs):
            ips.add(obs.ip)
    return ips
