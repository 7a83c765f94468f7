"""Lazy per-domain views over the columnar store.

:class:`ObservationView` is a two-slot flyweight exposing the full
:class:`~repro.scanner.results.DomainObservation` surface (fields and
derived properties) by reading the store's columns — nothing is copied,
nothing is materialised until a field is actually read.  Code that
iterates observations works unchanged on either run shape; analysis
counts a store run per site instead (:mod:`repro.analysis.units`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence, overload

from repro.pipeline.runs import WeeklyRun
from repro.scanner.results import DomainObservation, ObservationDerived
from repro.store.columns import ObservationStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quic.connection import QuicConnectionResult
    from repro.tcp.client import TcpScanOutcome


class ObservationView(ObservationDerived):
    """One domain's observation, read on demand from the store.

    Field-compatible with :class:`DomainObservation` (same names, same
    values, same derived properties via the shared
    :class:`ObservationDerived` base) but never holds per-domain state:
    every attribute read is column indexing.
    """

    __slots__ = ("store", "position")

    def __init__(self, store: ObservationStore, position: int):
        self.store = store
        self.position = position

    # -- plan columns (week-invariant) ---------------------------------
    @property
    def domain(self) -> str:
        return self.store.columns.domains[self.position]

    @property
    def population(self) -> str:
        return self.store.columns.populations[self.position]

    @property
    def lists(self) -> tuple[str, ...]:
        return self.store.columns.lists[self.position]

    @property
    def parked(self) -> bool:
        return bool(self.store.columns.parked[self.position])

    @property
    def resolved(self) -> bool:
        return bool(self.store.columns.resolved[self.position])

    @property
    def ip(self) -> str | None:
        return self.store.columns.ips[self.position]

    @property
    def org(self) -> str:
        return self.store.columns.orgs[self.position]

    @property
    def site_index(self) -> int:
        return self.store.columns.site_indexes[self.position]

    # -- run columns (per week) ----------------------------------------
    @property
    def quic_attempted(self) -> bool:
        return self.store.quic_attempted_at(self.position)

    @property
    def quic(self) -> "QuicConnectionResult | None":
        return self.store.quic_at(self.position)

    @property
    def tcp(self) -> "TcpScanOutcome | None":
        return self.store.tcp_at(self.position)

    # ------------------------------------------------------------------
    def materialize(self) -> DomainObservation:
        """An eager :class:`DomainObservation` copy of this view."""
        return DomainObservation(
            domain=self.domain,
            population=self.population,
            lists=self.lists,
            parked=self.parked,
            resolved=self.resolved,
            ip=self.ip,
            org=self.org,
            site_index=self.site_index,
            quic_attempted=self.quic_attempted,
            quic=self.quic,
            tcp=self.tcp,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ObservationView(domain={self.domain!r}, position={self.position}, "
            f"quic_attempted={self.quic_attempted})"
        )


class StoreObservations(Sequence):
    """Sequence facade over store positions, yielding lazy views.

    ``population=None`` covers every position of the run (the
    ``run.observations`` shape); a population restricts the view to
    its positions.  Iteration order is always ascending position
    order — the object path's order.
    """

    __slots__ = ("store", "positions")

    def __init__(self, store: ObservationStore, population: str | None = None):
        self.store = store
        columns = store.columns
        self.positions: Sequence[int] = (
            range(columns.count)
            if population is None
            else columns.population_positions(population)
        )

    def __len__(self) -> int:
        return len(self.positions)

    @overload
    def __getitem__(self, index: int) -> ObservationView: ...

    @overload
    def __getitem__(self, index: slice) -> list[ObservationView]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [ObservationView(self.store, p) for p in self.positions[index]]
        return ObservationView(self.store, self.positions[index])

    def __iter__(self) -> Iterator[ObservationView]:
        store = self.store
        for position in self.positions:
            yield ObservationView(store, position)


@dataclass
class StoreWeeklyRun(WeeklyRun):
    """A :class:`WeeklyRun` whose observations live in the store.

    ``observations`` is a :class:`StoreObservations` sequence (lazy
    views), and ``observations_for`` returns a population slice of it.
    Analysis counts ``store`` per site (:mod:`repro.analysis.units`).
    Everything else — site records, traces, the trace sampler — is
    identical to the object path.
    """

    store: ObservationStore | None = None

    def attach(self, store: ObservationStore) -> None:
        self.store = store
        self.observations = StoreObservations(store)

    def observations_for(self, population: str) -> StoreObservations:
        return StoreObservations(self.store, population)
