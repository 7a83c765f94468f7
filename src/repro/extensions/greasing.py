"""ECN greasing study (paper §9.3).

The paper proposes greasing ECN the way QUIC greases the spin bit:
"randomly enforcing a few ECN codepoints, for instance during the
initial phase of a connection, to increase visibility of ECN even if
ECN should not be used."  This module measures the effect: scan a
sample of QUIC hosts with and without greasing and count how many
*hosts observed ECN codepoints on arriving packets* — the visibility
that keeps middleboxes from ossifying on all-zero ECN fields.

Because we own both endpoints of the simulation, the study reads the
server-side arrival counters directly; a real deployment would have to
infer this from mirroring or in-network telemetry.

The client configuration lives in :mod:`repro.plugins.grease` (shared
with the ``grease`` measurement plugin, which runs the same greased
stack per (site, week) inside weekly scans and campaigns); this module
keeps the bespoke off/on visibility comparison of one sample.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.http.messages import HttpRequest
from repro.plugins.grease import grease_client_config
from repro.quic.connection import QuicClient
from repro.scanner.wire import ScanWire
from repro.util.rng import RngStream
from repro.util.weeks import Week
from repro.web.world import Site, World


@dataclass(frozen=True)
class GreasingReport:
    """Visibility with and without greasing over the same host sample."""

    hosts_scanned: int
    visible_without_grease: int  # hosts seeing >=1 marked arrival
    visible_with_grease: int
    greased_packets: int

    @property
    def visibility_gain(self) -> float:
        if self.hosts_scanned == 0:
            return 0.0
        return (
            self.visible_with_grease - self.visible_without_grease
        ) / self.hosts_scanned


def _scan_visibility(
    world: World,
    site: Site,
    week: Week,
    vantage_id: str,
    *,
    grease: bool,
    grease_probability: float,
    trailing_pings: int,
    seed: int,
) -> tuple[bool, int]:
    """One scan; returns (server saw any marked arrival, greased count)."""
    server = world.quic_server(site, week, vantage_id)
    if server is None:
        return False, 0
    wire = ScanWire(world, vantage_id, site.route_key, server.handle_datagram, week)
    client = QuicClient(
        wire,
        grease_client_config(
            grease=grease,
            probability=grease_probability,
            trailing_pings=trailing_pings,
        ),
        rng=RngStream(seed, f"grease/{site.ip}"),
    )
    client.fetch(site.ip, HttpRequest(authority=f"www.{site.provider.name.lower()}.example"))
    return server.observed_marked_arrivals > 0, client.result.greased_sent


def run_greasing_study(
    world: World,
    week: Week | None = None,
    *,
    vantage_id: str = "main-aachen",
    grease_probability: float = 0.25,
    trailing_pings: int = 6,
    max_sites: int | None = None,
    seed: int = 1,
) -> GreasingReport:
    """Scan every QUIC site twice (greasing off/on) and compare visibility.

    Hosts behind ECN-clearing paths stay dark either way — greasing
    cannot defeat an impairment, only keep healthy paths exercised.
    """
    week = week or world.config.reference_week
    sites = [
        site
        for site in world.sites
        if world.site_policy(site, vantage_id).quic_profile is not None
    ]
    if max_sites is not None:
        sites = sites[:max_sites]
    visible_plain = 0
    visible_greased = 0
    greased_packets = 0
    scanned = 0
    for site in sites:
        plain, _ = _scan_visibility(
            world,
            site,
            week,
            vantage_id,
            grease=False,
            grease_probability=grease_probability,
            trailing_pings=trailing_pings,
            seed=seed,
        )
        greased, count = _scan_visibility(
            world,
            site,
            week,
            vantage_id,
            grease=True,
            grease_probability=grease_probability,
            trailing_pings=trailing_pings,
            seed=seed,
        )
        scanned += 1
        visible_plain += plain
        visible_greased += greased
        greased_packets += count
    return GreasingReport(
        hosts_scanned=scanned,
        visible_without_grease=visible_plain,
        visible_with_grease=visible_greased,
        greased_packets=greased_packets,
    )
