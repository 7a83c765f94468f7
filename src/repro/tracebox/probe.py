"""TTL-sweep probing with QUIC Initials carrying ECT codepoints.

Implements the paper's §4.2 procedure: QUIC Initial packets with active
ECT marks and increasing TTLs trigger ICMP time-exceeded quotes from the
routers on the path; 3 s timeout per hop, abort after 5 consecutive
silent hops.  One fixed source port per trace keeps the probe flow on a
single ECMP member — which may still differ from the transport scan's
member (the load-balancing caveat of §4.4/§7.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.codepoints import ECN
from repro.netsim.packet import IpPacket, UdpPayload
from repro.quic.frames import CryptoFrame
from repro.quic.packets import LongHeaderPacket, PacketType
from repro.quic.versions import QuicVersion
from repro.util.rng import stable_hash
from repro.util.weeks import Week
from repro.web.world import Site, World

HOP_TIMEOUT_SECONDS = 3.0
MAX_CONSECUTIVE_TIMEOUTS = 5
PROBE_RTT_SECONDS = 0.05


@dataclass(frozen=True)
class HopObservation:
    """One TTL step of a trace."""

    ttl: int
    responded: bool
    router_asn: int | None = None
    router_name: str | None = None
    router_address: str | None = None
    quote_ecn: ECN | None = None


@dataclass
class TraceResult:
    """A full TTL sweep towards one server IP."""

    target_ip: str
    probe_ecn: ECN
    hops: list[HopObservation] = field(default_factory=list)
    reached_destination: bool = False
    aborted_after_timeouts: bool = False

    def observed_quotes(self) -> list[HopObservation]:
        return [hop for hop in self.hops if hop.responded]


def _probe_packet(
    source_ip: str, target_ip: str, sport: int, ttl: int, probe_ecn: ECN, version: int
) -> IpPacket:
    quic_initial = LongHeaderPacket(
        packet_type=PacketType.INITIAL,
        version=QuicVersion.V1,
        dcid=b"\x7f" * 8,
        scid=b"\x7e" * 8,
        packet_number=ttl,  # distinct per probe, like real tracebox
        frames=(CryptoFrame(0, b"tracebox-probe"),),
    )
    return IpPacket(
        version=version,
        src=source_ip,
        dst=target_ip,
        ttl=ttl,
        tos=int(probe_ecn),
        payload=UdpPayload(sport, 443, quic_initial),
    )


def trace_site(
    world: World,
    site: Site,
    week: Week,
    vantage_id: str = "main-aachen",
    *,
    probe_ecn: ECN = ECN.ECT0,
    ip_version: int = 4,
    max_ttl: int = 24,
) -> TraceResult:
    """Run one TTL sweep towards ``site`` from ``vantage_id``."""
    vantage = world.vantages[vantage_id]
    target_ip = site.ip if ip_version == 4 else site.ipv6
    if target_ip is None:
        raise ValueError("site has no address for the requested family")
    route_key = site.route_key + ("/v6" if ip_version == 6 else "")
    trace_key = route_key + "/trace"
    if not world.network.has_route(vantage_id, trace_key):
        trace_key = route_key
    # One stable source port per (site, week): single ECMP member.
    sport = 33434 + stable_hash("traceport", vantage_id, site.ip, str(week)) % 2048
    result = TraceResult(target_ip=target_ip, probe_ecn=probe_ecn)
    consecutive_timeouts = 0
    for ttl in range(1, max_ttl + 1):
        packet = _probe_packet(
            vantage.source_ip, target_ip, sport, ttl, probe_ecn, ip_version
        )
        outcome = world.network.send(vantage_id, trace_key, packet, week)
        if outcome.icmp is not None:
            world.clock.advance(PROBE_RTT_SECONDS)
            icmp = outcome.icmp
            result.hops.append(
                HopObservation(
                    ttl=ttl,
                    responded=True,
                    router_asn=icmp.router_asn,
                    router_name=icmp.router_name,
                    router_address=icmp.router_address,
                    quote_ecn=icmp.quote.ecn,
                )
            )
            consecutive_timeouts = 0
            continue
        if outcome.delivered is not None:
            world.clock.advance(PROBE_RTT_SECONDS)
            result.reached_destination = True
            break
        world.clock.advance(HOP_TIMEOUT_SECONDS)
        result.hops.append(HopObservation(ttl=ttl, responded=False))
        consecutive_timeouts += 1
        if consecutive_timeouts >= MAX_CONSECUTIVE_TIMEOUTS:
            result.aborted_after_timeouts = True
            break
    return result
