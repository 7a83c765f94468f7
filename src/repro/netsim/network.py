"""The network fabric: path templates, ECMP variants, route epochs.

A :class:`PathTemplate` describes the route between one vantage point and
one destination group.  Templates can hold several ECMP *variants*; the
variant a flow takes is chosen by a stable flow hash, which is how a
tracebox probe (different source port) can traverse a different physical
path than the transport-layer scan — a limitation the paper calls out
explicitly (§4.4, §7.3).

Templates are registered per route *epoch* (a start week), modelling
routing changes such as Server Central's Level3 → Arelion/Telia move in
December 2022 (§6.1).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.netsim.clock import Clock
from repro.netsim.packet import FlowKey, IpPacket
from repro.netsim.path import NetworkPath, TraversalResult
from repro.util.rng import RngStream, stable_hash
from repro.util.weeks import Week


@dataclass
class PathTemplate:
    """ECMP group of equivalent paths towards one destination group."""

    name: str
    variants: list[NetworkPath]
    # Weights must align with variants; default is uniform.
    weights: list[float] | None = None

    def __post_init__(self) -> None:
        if not self.variants:
            raise ValueError("a path template needs at least one variant")
        if self.weights is not None and len(self.weights) != len(self.variants):
            raise ValueError("weights must align with variants")

    def select(self, flow: FlowKey) -> NetworkPath:
        """Stable ECMP choice for a flow (same 5-tuple -> same path)."""
        if len(self.variants) == 1:
            return self.variants[0]
        bucket = stable_hash(self.name, flow.src, flow.dst, flow.sport, flow.dport, flow.proto)
        if self.weights is None:
            return self.variants[bucket % len(self.variants)]
        total = sum(self.weights)
        point = (bucket % 10_000) / 10_000.0 * total
        acc = 0.0
        for variant, weight in zip(self.variants, self.weights, strict=True):
            acc += weight
            if point < acc:
                return variant
        return self.variants[-1]


@dataclass
class _RouteEntry:
    """Epoch-ordered templates for one (vantage, destination-group) pair."""

    epochs: list[tuple[int, PathTemplate]] = field(default_factory=list)

    def add(self, start: Week | None, template: PathTemplate) -> None:
        key = start.ordinal() if start is not None else -1
        self.epochs.append((key, template))
        self.epochs.sort(key=lambda item: item[0])

    def at(self, week: Week) -> PathTemplate:
        keys = [key for key, _ in self.epochs]
        index = bisect_right(keys, week.ordinal()) - 1
        if index < 0:
            index = 0
        return self.epochs[index][1]


class Network:
    """Routing fabric keyed by (vantage id, destination group id).

    Routes may be installed eagerly via :meth:`register` or supplied by
    a *section loader* (:meth:`set_section_loader`): a callable invoked
    on a lookup miss with the vantage id, expected to register that
    vantage's routes and return True if it materialised anything.  The
    hook only runs on misses, so materialised routes pay no overhead.
    """

    def __init__(self, clock: Clock, rng: RngStream):
        self.clock = clock
        self.rng = rng
        self._routes: dict[tuple[str, str], _RouteEntry] = {}
        self._section_loader = None

    # ------------------------------------------------------------------
    def register(
        self,
        vantage_id: str,
        group_id: str,
        template: PathTemplate,
        *,
        start: Week | None = None,
    ) -> None:
        """Install a path template, optionally starting at a given week."""
        entry = self._routes.setdefault((vantage_id, group_id), _RouteEntry())
        entry.add(start, template)

    def set_section_loader(self, loader) -> None:
        """Install the lazy route-section hook (``loader(vantage_id) -> bool``)."""
        self._section_loader = loader

    def _load_section(self, vantage_id: str) -> bool:
        loader = self._section_loader
        return loader is not None and loader(vantage_id)

    def has_route(self, vantage_id: str, group_id: str) -> bool:
        if (vantage_id, group_id) in self._routes:
            return True
        if self._load_section(vantage_id):
            return (vantage_id, group_id) in self._routes
        return False

    def template_for(self, vantage_id: str, group_id: str, week: Week) -> PathTemplate:
        entry = self._routes.get((vantage_id, group_id))
        if entry is None and self._load_section(vantage_id):
            entry = self._routes.get((vantage_id, group_id))
        if entry is None:
            raise KeyError(f"no route from {vantage_id!r} to {group_id!r}")
        return entry.at(week)

    # ------------------------------------------------------------------
    def send(
        self,
        vantage_id: str,
        group_id: str,
        packet: IpPacket,
        week: Week,
    ) -> TraversalResult:
        """Send one packet from a vantage point towards a host group."""
        template = self.template_for(vantage_id, group_id, week)
        path = template.select(packet.flow_key)
        return path.traverse(packet, self.clock, self.rng)
