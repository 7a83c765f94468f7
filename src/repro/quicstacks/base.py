"""Server-side QUIC engine with configurable ECN mirroring quirks.

The engine implements an honest, minimal QUIC responder (version check,
per-space packet numbering, ACK generation, HTTP response delivery); the
:class:`MirrorQuirk` enumerates every way the paper found real stacks to
deviate when echoing ECN counters:

* ``CORRECT``        — count what arrived (quic-go, s2n-quic, lsquic with
  the ECN flag on).
* ``NONE``           — never echo counters (Cloudflare/Fastly/Google own
  properties; pre-4.0 lsquic on v1).
* ``PN_SPACE_RESET`` — mirror during the handshake but lose the setting
  on the switch to 1-RTT (lsquic with the ECN flag off; the paper's
  root cause for most *undercount* failures, §7.3).
* ``HALVED``         — echo only every other marked packet (observed
  undercounting at Google's proxy).
* ``SWAPPED``        — report ECT(0) arrivals in the ECT(1) counter
  (implementor confusion, or internal DCTCP markings leaking out).
* ``ALL_CE``         — count every arriving packet as CE (Google's India
  experiment; also what a CE-marking-all path produces).
* ``DECREASING``     — counters reset mid-connection (non-monotonic).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

from repro.core.codepoints import ECN
from repro.core.counters import EcnCounts
from repro.http.messages import HttpResponse
from repro.netsim.packet import IpPacket, UdpPayload
from repro.quic.frames import (
    AckFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    Frame,
    HandshakeDoneFrame,
    StreamFrame,
)
from repro.quic.packets import (
    LongHeaderPacket,
    PacketNumberSpace,
    PacketType,
    QuicPacket,
    ShortHeaderPacket,
    VersionNegotiationPacket,
)
from repro.quic.transport_params import GENERIC_PARAMS, TransportParameters
from repro.quic.versions import QuicVersion


class MirrorQuirk(enum.Enum):
    CORRECT = "correct"
    NONE = "none"
    PN_SPACE_RESET = "pn_space_reset"
    HALVED = "halved"
    SWAPPED = "swapped"
    ALL_CE = "all_ce"
    DECREASING = "decreasing"

    # Members are singletons; identity hash is consistent and avoids
    # Enum's name-hash in per-packet accounting dict lookups.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class StackBehavior:
    """The externally visible behaviour of one server stack at one week."""

    stack_label: str
    version: QuicVersion = QuicVersion.V1
    server_header: str | None = None
    via_header: str | None = None
    transport_params: TransportParameters = GENERIC_PARAMS
    mirror_quirk: MirrorQuirk = MirrorQuirk.NONE
    use_ecn: bool = False
    quic_enabled: bool = True

    def with_quirk(self, quirk: MirrorQuirk) -> "StackBehavior":
        return replace(self, mirror_quirk=quirk)


_SPACES = tuple(PacketNumberSpace)
_ZERO_COUNTS = EcnCounts()
_SERVER_SCID = b"\x33" * 8
_SERVER_HELLO = CryptoFrame(0, b"server-hello")


class _ConnState:
    """Per-connection server state (we model one connection per scan).

    A plain slotted class with a hand-rolled ``__init__``: one of these
    is allocated per scanned site per week, and the dataclass
    default-factory lambdas it replaced showed up in campaign profiles.
    """

    __slots__ = (
        "received_pns",
        "counts",
        "marked_arrivals",
        "ect_arrivals",
        "sent_pns",
        "handshake_done_sent",
        "request_buffer",
        "request_complete",
        "app_acks_sent",
    )

    def __init__(self) -> None:
        self.received_pns: dict[PacketNumberSpace, set[int]] = {
            space: set() for space in _SPACES
        }
        self.counts: dict[PacketNumberSpace, EcnCounts] = dict.fromkeys(
            _SPACES, _ZERO_COUNTS
        )
        self.marked_arrivals = 0  # quirk-internal counter (HALVED skip logic)
        self.ect_arrivals = 0  # packets that arrived with any ECN codepoint
        self.sent_pns: dict[PacketNumberSpace, int] = dict.fromkeys(_SPACES, 0)
        self.handshake_done_sent = False
        self.request_buffer = bytearray()
        self.request_complete = False
        self.app_acks_sent = 0


class QuicServerStack:
    """A QUIC responder for scan traffic.

    ``response_factory`` maps the (already reassembled) request bytes to
    the :class:`HttpResponse` this host serves; hosts bind it to their
    domain content.
    """

    def __init__(
        self,
        behavior: StackBehavior,
        response_factory: Callable[[bytes], HttpResponse] | None = None,
        *,
        ip_version: int = 4,
    ):
        self.behavior = behavior
        self.response_factory = response_factory or (lambda _raw: HttpResponse())
        self.ip_version = ip_version
        self._conn = _ConnState()

    @property
    def observed_marked_arrivals(self) -> int:
        """Packets that arrived with an ECN codepoint set (any of ECT(0),
        ECT(1), CE) — the network-side ECN visibility a greasing client
        keeps alive even when validation disabled ECN (§9.3)."""
        return self._conn.ect_arrivals

    # ------------------------------------------------------------------
    def handle_datagram(self, packet: IpPacket) -> list[IpPacket]:
        """Process one client datagram, produce response datagrams."""
        if not self.behavior.quic_enabled:
            return []
        payload = packet.payload
        if not isinstance(payload, UdpPayload):
            return []
        quic_packet = payload.data
        responses = self._handle_quic(quic_packet, packet.ecn)
        out: list[IpPacket] = []
        for response in responses:
            marking = self._egress_marking(response)
            out.append(
                IpPacket(
                    version=packet.version,
                    src=packet.dst,
                    dst=packet.src,
                    ttl=64,
                    tos=int(marking),
                    payload=UdpPayload(payload.dport, payload.sport, response),
                )
            )
        return out

    def _egress_marking(self, response: QuicPacket) -> ECN:
        if isinstance(response, VersionNegotiationPacket):
            return ECN.NOT_ECT
        return ECN.ECT0 if self.behavior.use_ecn else ECN.NOT_ECT

    # ------------------------------------------------------------------
    def _handle_quic(self, quic_packet: QuicPacket, ip_ecn: ECN) -> list[QuicPacket]:
        conn = self._conn
        if isinstance(quic_packet, VersionNegotiationPacket):
            return []
        if isinstance(quic_packet, LongHeaderPacket):
            if quic_packet.version is not self.behavior.version:
                return [
                    VersionNegotiationPacket(
                        dcid=quic_packet.scid,
                        scid=quic_packet.dcid,
                        supported_versions=(self.behavior.version,),
                    )
                ]
        space = quic_packet.pn_space
        first_time = quic_packet.packet_number not in conn.received_pns[space]
        conn.received_pns[space].add(quic_packet.packet_number)
        if first_time:
            self._record_arrival(space, ip_ecn)

        if isinstance(quic_packet, LongHeaderPacket):
            if quic_packet.packet_type is PacketType.INITIAL:
                return self._respond_initial(quic_packet)
            return self._respond_handshake(quic_packet)
        return self._respond_application(quic_packet)

    # ------------------------------------------------------------------
    # ECN accounting per quirk
    # ------------------------------------------------------------------
    def _record_arrival(self, space: PacketNumberSpace, ip_ecn: ECN) -> None:
        conn = self._conn
        if ip_ecn is not ECN.NOT_ECT:
            conn.ect_arrivals += 1
        quirk = self.behavior.mirror_quirk
        if quirk is MirrorQuirk.NONE:
            return
        if quirk is MirrorQuirk.ALL_CE:
            conn.counts[space] = conn.counts[space].with_observed(ECN.CE)
            return
        if ip_ecn is ECN.NOT_ECT:
            return
        conn.marked_arrivals += 1
        if quirk is MirrorQuirk.HALVED and conn.marked_arrivals % 2 == 0:
            return
        observed = ip_ecn
        if quirk is MirrorQuirk.SWAPPED:
            if ip_ecn is ECN.ECT0:
                observed = ECN.ECT1
            elif ip_ecn is ECN.ECT1:
                observed = ECN.ECT0
        conn.counts[space] = conn.counts[space].with_observed(observed)

    def _ecn_for_ack(self, space: PacketNumberSpace) -> EcnCounts | None:
        quirk = self.behavior.mirror_quirk
        if quirk is MirrorQuirk.NONE:
            return None
        if quirk is MirrorQuirk.PN_SPACE_RESET and space is PacketNumberSpace.APPLICATION:
            # lsquic bug: the ECN-read setting is not carried over to the
            # fully initialised connection; 1-RTT ACKs lose the counters.
            return None
        if quirk is MirrorQuirk.DECREASING and space is PacketNumberSpace.APPLICATION:
            # Buggy stack: counters reset after the first 1-RTT ACK, so a
            # later ACK reports *lower* cumulative values (non-monotonic).
            self._conn.app_acks_sent += 1
            if self._conn.app_acks_sent >= 2:
                return EcnCounts(0, 0, 0)
        counts = self._conn.counts[space]
        if counts.total == 0:
            return None
        return counts

    # ------------------------------------------------------------------
    # Flights
    # ------------------------------------------------------------------
    def _respond_initial(self, packet: LongHeaderPacket) -> list[QuicPacket]:
        conn = self._conn
        version = self.behavior.version
        server_initial = LongHeaderPacket(
            packet_type=PacketType.INITIAL,
            version=version,
            dcid=packet.scid,
            scid=_SERVER_SCID,
            packet_number=self._next_pn(PacketNumberSpace.INITIAL),
            frames=(
                AckFrame.for_packets(
                    conn.received_pns[PacketNumberSpace.INITIAL],
                    ecn=self._ecn_for_ack(PacketNumberSpace.INITIAL),
                ),
                _SERVER_HELLO,
            ),
        )
        handshake = LongHeaderPacket(
            packet_type=PacketType.HANDSHAKE,
            version=version,
            dcid=packet.scid,
            scid=_SERVER_SCID,
            packet_number=self._next_pn(PacketNumberSpace.HANDSHAKE),
            frames=_transport_params_frames(self.behavior.transport_params),
        )
        return [server_initial, handshake]

    def _respond_handshake(self, packet: LongHeaderPacket) -> list[QuicPacket]:
        conn = self._conn
        out: list[QuicPacket] = [
            LongHeaderPacket(
                packet_type=PacketType.HANDSHAKE,
                version=self.behavior.version,
                dcid=packet.scid,
                scid=_SERVER_SCID,
                packet_number=self._next_pn(PacketNumberSpace.HANDSHAKE),
                frames=(
                    AckFrame.for_packets(
                        conn.received_pns[PacketNumberSpace.HANDSHAKE],
                        ecn=self._ecn_for_ack(PacketNumberSpace.HANDSHAKE),
                    ),
                ),
            )
        ]
        if not conn.handshake_done_sent:
            conn.handshake_done_sent = True
            out.append(
                ShortHeaderPacket(
                    dcid=packet.scid,
                    packet_number=self._next_pn(PacketNumberSpace.APPLICATION),
                    frames=(HandshakeDoneFrame(),),
                )
            )
        return out

    def _respond_application(self, packet: ShortHeaderPacket) -> list[QuicPacket]:
        conn = self._conn
        request_finished = False
        for frame in packet.frames:
            if isinstance(frame, ConnectionCloseFrame):
                return []
            if isinstance(frame, StreamFrame):
                if isinstance(frame.data, bytes):
                    conn.request_buffer += frame.data
                if frame.fin:
                    request_finished = True
        ack = AckFrame.for_packets(
            conn.received_pns[PacketNumberSpace.APPLICATION],
            ecn=self._ecn_for_ack(PacketNumberSpace.APPLICATION),
        )
        frames: list[Frame] = [ack]
        if request_finished and not conn.request_complete:
            conn.request_complete = True
            response = self.response_factory(bytes(conn.request_buffer))
            response = self._apply_identity_headers(response)
            frames.append(StreamFrame(stream_id=0, offset=0, data=response, fin=True))
        return [
            ShortHeaderPacket(
                dcid=packet.dcid,
                packet_number=self._next_pn(PacketNumberSpace.APPLICATION),
                frames=tuple(frames),
            )
        ]

    def _apply_identity_headers(self, response: HttpResponse) -> HttpResponse:
        return _with_identity_headers(
            self.behavior.server_header, self.behavior.via_header, response
        )

    def _next_pn(self, space: PacketNumberSpace) -> int:
        pn = self._conn.sent_pns[space]
        self._conn.sent_pns[space] = pn + 1
        return pn


# ----------------------------------------------------------------------
# Week-invariant response construction (memoized across connections)
# ----------------------------------------------------------------------
@lru_cache(maxsize=256)
def _transport_params_frames(params) -> tuple[Frame, ...]:
    """The handshake CRYPTO flight for one parameter set.

    Transport parameters are week-invariant per stack behaviour, so the
    frame (and the varint-encoded blob inside it) is built once and the
    frozen tuple shared by every connection the stack answers.
    """
    from repro.quic.connection import embed_transport_params

    return (CryptoFrame(0, embed_transport_params(params)),)


@lru_cache(maxsize=1024)
def _with_identity_headers(
    server_header: str | None, via_header: str | None, response: HttpResponse
) -> HttpResponse:
    """Identity headers applied to a base response, memoized by value —
    sites sharing a stack profile serve value-identical responses."""
    headers = list(response.headers)
    if server_header is not None and response.server is None:
        headers.append(("server", server_header))
    if via_header is not None and response.via is None:
        headers.append(("via", via_header))
    return HttpResponse(status=response.status, headers=tuple(headers), body=response.body)
