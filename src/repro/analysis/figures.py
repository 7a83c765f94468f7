"""Builders for Figures 3–8 of the paper's evaluation."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import pairwise

from repro.analysis.aggregate import first_seen_order
from repro.analysis.classify import quic_group, support_group, tcp_group
from repro.pipeline.campaign import Campaign
from repro.pipeline.runs import WeeklyRun
from repro.pipeline.vantage import VantageRun
from repro.scanner.results import server_label_of
from repro.store.views import store_slice
from repro.util.weeks import Week
from repro.web.world import World


# ----------------------------------------------------------------------
# Figure 3 — ECN mirroring over time, by webserver product
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure3Point:
    week: Week
    total_quic_domains: int
    mirroring_by_server: dict[str, int]

    @property
    def total_mirroring(self) -> int:
        return sum(self.mirroring_by_server.values())


def figure3(campaign: Campaign) -> list[Figure3Point]:
    """Mirroring com/net/org domains per server label, over time."""
    points: list[Figure3Point] = []
    for run in campaign.runs:
        by_server: Counter = Counter()
        total = 0
        observations = run.observations_for("cno")
        sliced = store_slice(observations)
        if sliced is not None:
            store, population = sliced
            first: dict[str, int] = {}
            for segment, result, count in store.quic_sites(population):
                if not result.connected:
                    continue
                total += count
                if result.mirroring:
                    label = server_label_of(result)
                    by_server[label] += count
                    position = min(segment.rank_positions[:count])
                    first[label] = min(first.get(label, position), position)
            by_server = first_seen_order(by_server, first)
        else:
            for obs in observations:
                if not obs.quic_available:
                    continue
                total += 1
                if obs.mirroring:
                    by_server[obs.server_label] += 1
        points.append(
            Figure3Point(
                week=run.week,
                total_quic_domains=total,
                mirroring_by_server=dict(by_server),
            )
        )
    return points


# ----------------------------------------------------------------------
# Figures 4/8 — ECN support transitions with QUIC versions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TransitionData:
    """States per snapshot and flows between consecutive snapshots."""

    snapshots: tuple[Week, ...]
    state_counts: tuple[dict[str, int], ...]
    flows: tuple[dict[tuple[str, str], int], ...]  # len == len(snapshots)-1


def _domain_state_of(result) -> str:
    """Figure 4/8 state label of one QUIC result (shared by both the
    per-observation path and the store's per-site groups)."""
    if result is None or not result.connected:
        return "Unavailable"
    label = "Mirroring" if result.mirroring else "No Mirroring"
    version_label = result.version.label if result.version is not None else None
    return f"{label} ({version_label})"


def _domain_state(obs) -> str:
    return _domain_state_of(obs.quic)


def figure4(
    campaign: Campaign,
    snapshots: tuple[Week, ...] | None = None,
    *,
    min_flow: int = 0,
    require_ecn_touch: bool = True,
) -> TransitionData:
    """Transitions between snapshots (Figure 4: filtered; Figure 8: raw).

    ``min_flow`` drops flows below the threshold (the paper uses 3 k
    domains at paper scale); ``require_ecn_touch`` keeps only domains
    that pass through a Mirroring state at least once.
    """
    if snapshots is None:
        weeks = campaign.weeks()
        snapshots = (weeks[0], weeks[len(weeks) // 2], weeks[-1])
    runs = [campaign.closest_run(week) for week in snapshots]
    slices = [store_slice(run.observations_for("cno")) for run in runs]
    stores = [sliced[0] for sliced in slices if sliced is not None]
    if len(stores) == len(runs) and len({id(store.columns) for store in stores}) == 1:
        groups = _state_groups(stores, "cno")
    else:
        # Runs of different plans share no segments: one group per domain.
        states_by_domain: dict[str, list[str]] = defaultdict(
            lambda: ["Unavailable"] * len(runs)
        )
        for index, run in enumerate(runs):
            for obs in run.observations_for("cno"):
                states_by_domain[obs.domain][index] = _domain_state(obs)
        groups = [(1, tuple(states)) for states in states_by_domain.values()]
    if require_ecn_touch:
        groups = [
            (size, states)
            for size, states in groups
            if any(state.startswith("Mirroring") for state in states)
        ]
    state_counts: list[dict[str, int]] = [Counter() for _ in runs]
    flows: list[Counter] = [Counter() for _ in range(len(runs) - 1)]
    for size, states in groups:
        for index, state in enumerate(states):
            state_counts[index][state] += size
            if index > 0:
                flows[index - 1][(states[index - 1], state)] += size
    filtered_flows = tuple(
        {pair: count for pair, count in flow.items() if count >= min_flow}
        for flow in flows
    )
    return TransitionData(
        snapshots=tuple(run.week for run in runs),
        state_counts=tuple(dict(c) for c in state_counts),
        flows=filtered_flows,
    )


def _state_groups(stores, population: str) -> list[tuple[int, tuple[str, ...]]]:
    """``(domain count, state per run)`` groups of one plan's domains.

    Each site's rank-ordered members split at the runs' attempted
    counts into at most ``len(stores) + 1`` groups of equal states; the
    positions without a site form one all-``Unavailable`` group.
    Groups come in order of their earliest position, so every Counter
    built from them inserts keys in the per-domain loop's order.
    """
    columns = stores[0].columns
    keyed = []
    unattributed = len(columns.population_positions(population))
    for index, segment in columns.population_segments(population):
        counts = [store.attempted(index, segment) for store in stores]
        states = [_domain_state_of(store.quic_results[index]) for store in stores]
        for lo, hi in pairwise(sorted({0, len(segment.positions), *counts})):
            group_states = tuple(
                state if hi <= count else "Unavailable"
                for state, count in zip(states, counts, strict=True)
            )
            keyed.append((min(segment.rank_positions[lo:hi]), hi - lo, group_states))
        unattributed -= len(segment.positions)
    if unattributed:
        segment_of = columns.segment_of
        first = next(p for p in columns.population_positions(population) if segment_of[p] < 0)
        keyed.append((first, unattributed, ("Unavailable",) * len(stores)))
    keyed.sort()
    return [(size, states) for _first, size, states in keyed]


def figure8(campaign: Campaign, snapshots: tuple[Week, ...] | None = None) -> TransitionData:
    """The unfiltered variant of Figure 4."""
    return figure4(campaign, snapshots, min_flow=0, require_ecn_touch=False)


# ----------------------------------------------------------------------
# Figure 5 — IPv4 vs IPv6 relation of visible ECN support
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RelationData:
    """Two categorical marginals plus their joint distribution."""

    left_counts: dict[str, int]
    right_counts: dict[str, int]
    joint: dict[tuple[str, str], int]


def figure5(run_v4: WeeklyRun, run_v6: WeeklyRun) -> RelationData:
    """IPv4 -> IPv6 relation for com/net/org domains."""
    v6_by_domain = {
        obs.domain: support_group(obs) for obs in run_v6.observations_for("cno")
    }
    left: Counter = Counter()
    right: Counter = Counter()
    joint: Counter = Counter()
    for obs in run_v4.observations_for("cno"):
        left_group = support_group(obs)
        right_group = v6_by_domain.get(obs.domain, "Unavailable")
        left[left_group] += 1
        right[right_group] += 1
        joint[(left_group, right_group)] += 1
    return RelationData(dict(left), dict(right), dict(joint))


# ----------------------------------------------------------------------
# Figure 6 — TCP vs QUIC relation of CE mirroring (CE-probing mode)
# ----------------------------------------------------------------------
def figure6(run: WeeklyRun) -> RelationData:
    """TCP-side vs QUIC-side CE-mirroring groups for one CE-probe run."""
    left: Counter = Counter()
    right: Counter = Counter()
    joint: Counter = Counter()
    for obs in run.observations_for("cno"):
        tcp = tcp_group(obs)
        if tcp is None:
            continue  # the paper's figure covers TCP-reachable domains
        quic = quic_group(obs)
        left[tcp] += 1
        right[quic] += 1
        joint[(tcp, quic)] += 1
    return RelationData(dict(left), dict(right), dict(joint))


# ----------------------------------------------------------------------
# Figure 7 — global view: validation pass rate per vantage point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure7Point:
    vantage_id: str
    marker: str
    city: str
    lat: float
    lon: float
    pct_capable_v4: float | None
    pct_capable_v6: float | None


def _pct_capable(run: VantageRun | None) -> float | None:
    if run is None:
        return None
    total = run.total_mapped()
    if total == 0:
        return None
    capable = run.mapped_where(
        lambda result: result.connected
        and result.validation_outcome.value == "capable"
    )
    return 100.0 * capable / total


def figure7(
    world: World,
    distributed_v4: dict[str, VantageRun],
    distributed_v6: dict[str, VantageRun] | None = None,
) -> list[Figure7Point]:
    """Per-vantage share of mapped domains passing ECN validation."""
    points: list[Figure7Point] = []
    for vantage_id, vantage in world.vantages.items():
        run_v4 = distributed_v4.get(vantage_id)
        run_v6 = (distributed_v6 or {}).get(vantage_id)
        points.append(
            Figure7Point(
                vantage_id=vantage_id,
                marker=vantage.marker,
                city=vantage.city,
                lat=vantage.lat,
                lon=vantage.lon,
                pct_capable_v4=_pct_capable(run_v4),
                pct_capable_v6=_pct_capable(run_v6),
            )
        )
    return points


# ----------------------------------------------------------------------
# §8 error-category comparison across vantage points
# ----------------------------------------------------------------------
def vantage_error_categories(
    runs: dict[str, VantageRun]
) -> dict[str, dict[str, int]]:
    """Mapped-domain counts per validation class per vantage point."""
    from repro.core.validation import ValidationOutcome

    label_for = {
        ValidationOutcome.CAPABLE: "Capable",
        ValidationOutcome.UNDERCOUNT: "Undercount",
        ValidationOutcome.WRONG_CODEPOINT: "Re-Marking ECT(1)",
        ValidationOutcome.ALL_CE: "All CE",
        ValidationOutcome.NO_MIRRORING: "No Mirroring",
        ValidationOutcome.NON_MONOTONIC: "Non-Monotonic",
        ValidationOutcome.BLACKHOLE: "Blackhole",
    }
    out: dict[str, dict[str, int]] = {}
    for vantage_id, run in runs.items():
        counts: Counter = Counter()
        for site_index, result in run.results.items():
            mapped = run.mapped_domains.get(site_index, 0)
            if not result.connected:
                counts["Unavailable"] += mapped
            else:
                counts[label_for.get(result.validation_outcome, "No Mirroring")] += mapped
        out[vantage_id] = dict(counts)
    return out
