"""Counting units: the one analysis module that tells run shapes apart.

Tables 1-7 and Figure 3 count domains and IPs per host behaviour.
Hosts on one IP behave alike (the paper's §4.4 assumption), so every
builder counts *units* that share one QUIC result, each weighted by the
number of domains it stands for.  A run comes in one of two shapes:

* a store-backed run (:class:`~repro.store.views.StoreWeeklyRun`, what
  the engine produces) yields one unit per site with a QUIC result,
  weighted by the week's attempted count of its members;
* a reference-loop run (a plain :class:`~repro.pipeline.runs.WeeklyRun`
  of eager observations, the scan oracle) yields one unit per
  observation with a QUIC result, weight 1, in observation order.

Both feed the same builder body, so the weight-1 stream checks every
site-grained step (attempted counts, first positions, per-site ip/org,
IP deduplication) against per-domain truth.

A unit is a plain tuple ``(result, site_index, ip, org, domains,
ranked)``: ``ranked`` lists the unit's member positions in rank order,
and its first ``domains`` entries are the counted members.  Positions
order like observations, so ``min(ranked[:domains])`` is the unit's
first-seen position.  The adapter never derives it: only the builders
whose output order or counts need per-member facts (first position,
parking) read the prefix, which keeps the other builders O(sites).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import pairwise
from typing import Callable, Iterator, Sequence

from repro.pipeline.runs import WeeklyRun
from repro.store.columns import NO_ROW
from repro.store.views import StoreWeeklyRun


def _observations(run: WeeklyRun, population: str | None):
    return run.observations if population is None else run.observations_for(population)


def quic_units(run: WeeklyRun, population: str | None) -> Iterator[tuple]:
    """``(result, site_index, ip, org, domains, ranked)`` per counted unit
    of ``population`` (``None``: every domain of the run)."""
    if isinstance(run, StoreWeeklyRun):
        store = run.store
        ip, site_orgs = store.columns.ip, store.columns.site_orgs
        for segment, result, count in store.quic_sites(population):
            yield (
                result,
                segment.site_index,
                ip(segment.first),
                site_orgs[segment.site_index],
                count,
                segment.rank_positions,
            )
    else:
        for index, obs in enumerate(_observations(run, population)):
            if obs.quic is not None:
                yield obs.quic, obs.site_index, obs.ip, obs.org, 1, (index,)


def parked_flags(run: WeeklyRun, population: str | None) -> Callable[[int], bool]:
    """A position's parked flag, for every position a unit's ``ranked``
    can name."""
    if isinstance(run, StoreWeeklyRun):
        columns = run.store.columns
        parked, rows = columns.table.parked, columns.rows
        return lambda position: parked(rows[position])
    return [obs.parked for obs in _observations(run, population)].__getitem__


def resolution(run: WeeklyRun, population: str) -> tuple[int, int, set[str]]:
    """``(domains, resolved domains, resolved IPs)`` of ``population``.

    Week-invariant.  A store run counts in O(sites): every member of a
    segment resolved, to its site's address unless an explicit resolver
    record names another one, and a site-less position resolved only
    through such a record.
    """
    if isinstance(run, StoreWeeklyRun):
        columns = run.store.columns
        population_of, rows, addresses = columns.table.population, columns.rows, columns.addresses
        overridden = [p for p in addresses if population_of(rows[p]) == population]
        segments = [segment for _index, segment in columns.population_segments(population)]
        resolved = sum(len(segment.rank_positions) for segment in segments)
        resolved += sum(columns.segment_of[p] == NO_ROW for p in overridden)
        ips = {addresses[p] for p in overridden}
        ips.update(
            columns.site_ips[segment.site_index]
            for segment in segments
            if any(p not in addresses for p in segment.rank_positions)
        )
        return len(columns.population_positions(population)), resolved, ips
    observations = run.observations_for(population)
    resolved = sum(obs.resolved for obs in observations)
    return len(observations), resolved, {obs.ip for obs in observations} - {None}


def state_groups(
    runs: Sequence[WeeklyRun], population: str, state_of: Callable
) -> list[tuple[int, tuple[str, ...]]]:
    """``(domain count, state per run)`` groups of ``population``'s
    domains, ``state_of`` mapping a QUIC result (or ``None``) to a state.

    Store runs of one plan split each site's rank-ordered members at
    the runs' attempted counts.  Any other mix is joined per domain
    name, one group per domain: store runs of different plans share no
    segments, so the join is the only correct path for them, and
    reference-loop runs have no segments at all.  Groups come in
    first-seen domain order either way.
    """
    stores = [run.store for run in runs if isinstance(run, StoreWeeklyRun)]
    if len(stores) == len(runs) and len({id(store.columns) for store in stores}) == 1:
        return _site_state_groups(stores, population, state_of)
    absent = state_of(None)
    states_by_domain: dict[str, list[str]] = defaultdict(lambda: [absent] * len(runs))
    for index, run in enumerate(runs):
        for obs in run.observations_for(population):
            states_by_domain[obs.domain][index] = state_of(obs.quic)
    return [(1, tuple(states)) for states in states_by_domain.values()]


def _site_state_groups(stores, population: str, state_of: Callable):
    """Each site's members split at the runs' attempted counts into at
    most ``len(stores) + 1`` groups of equal states; the positions
    without a site form one all-absent group.  Sorting by earliest
    position gives every Counter built from the groups the per-domain
    join's key order."""
    columns = stores[0].columns
    absent = state_of(None)
    keyed = []
    unattributed = len(columns.population_positions(population))
    for index, segment in columns.population_segments(population):
        counts = [store.attempted(index, segment) for store in stores]
        states = [state_of(store.quic_results[index]) for store in stores]
        for lo, hi in pairwise(sorted({0, len(segment.rank_positions), *counts})):
            group_states = tuple(
                state if hi <= count else absent
                for state, count in zip(states, counts, strict=True)
            )
            keyed.append((min(segment.rank_positions[lo:hi]), hi - lo, group_states))
        unattributed -= len(segment.rank_positions)
    if unattributed:
        segment_of = columns.segment_of
        first = next(p for p in columns.population_positions(population) if segment_of[p] < 0)
        keyed.append((first, unattributed, (absent,) * len(stores)))
    keyed.sort()
    return [(size, states) for _first, size, states in keyed]
