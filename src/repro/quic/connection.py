"""Scan-style QUIC client connection.

Mirrors the behaviour of the paper's adapted quic-go inside zgrab2
(§4.1): one HTTP/3 GET per target, a single Initial retransmission, and
the ECN validation state machine running with the reduced budget of
5 testing packets / 2 timeouts.  The client talks to the world through a
:class:`Wire` — any object with ``exchange(IpPacket) -> list[IpPacket]``
— so the same code runs over the simulated network in scans and over a
loopback in unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Protocol

from repro.core.codepoints import ECN
from repro.core.counters import EcnCounts
from repro.core.validation import (
    AckEcnSample,
    EcnValidator,
    ValidationConfig,
    ValidationOutcome,
)
from repro.http.messages import HttpRequest, HttpResponse
from repro.netsim.packet import IpPacket, UdpPayload
from repro.quic.frames import (
    AckFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    Frame,
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
from repro.quic.transport_params import TransportParameters
from repro.quic.versions import SUPPORTED_VERSIONS, QuicVersion

QUIC_PORT = 443


class Wire(Protocol):
    """Transport abstraction: send one IP packet, receive the responses."""

    def exchange(self, packet: IpPacket) -> list[IpPacket]:  # pragma: no cover
        ...


@dataclass(frozen=True, slots=True)
class QuicClientConfig:
    """Client knobs; defaults follow the paper's adaptations."""

    versions: tuple[QuicVersion, ...] = SUPPORTED_VERSIONS
    validation: ValidationConfig = field(default_factory=ValidationConfig)
    initial_retransmissions: int = 1  # paper reduced 2 -> 1 (§4.1, §A)
    request_packets: int = 3  # 1-RTT packets carrying the GET
    rto_seconds: float = 1.0
    request_timeout: float = 10.0
    source_ip: str = "192.0.2.1"
    source_port: int = 50_000
    ip_version: int = 4
    #: Disable ECN entirely (no testing phase) — how most QUIC stacks in
    #: the paper's interop matrix behave.  Baseline for greasing studies.
    enable_ecn: bool = True
    #: §9.3 proposal: randomly enforce ECN codepoints on packets that
    #: would otherwise be not-ECT (validation failed or concluded), to
    #: keep ECN visible to the network and resist ossification.  Greased
    #: packets are invisible to the validation machine.
    grease_ecn: bool = False
    grease_probability: float = 0.25
    #: Extra 1-RTT PING packets after the request (greasing studies).
    trailing_pings: int = 0


@dataclass(slots=True)
class QuicConnectionResult:
    """Observables of one scan connection (what zgrab logged)."""

    connected: bool = False
    version: QuicVersion | None = None
    server_header: str | None = None
    via_header: str | None = None
    alt_svc: str | None = None
    response_status: int | None = None
    transport_fingerprint: tuple[tuple[int, int], ...] | None = None
    mirroring: bool = False
    validation_outcome: ValidationOutcome = ValidationOutcome.PENDING
    server_set_ect: bool = False
    inbound_ecn_counts: EcnCounts = field(default_factory=EcnCounts)
    marked_sent: int = 0
    marked_acked: int = 0
    mirrored_counts: EcnCounts | None = None
    greased_sent: int = 0
    error: str | None = None


class QuicClient:
    """Drives one connection + HTTP/3 request against a wire."""

    __slots__ = (
        "wire",
        "config",
        "rng",
        "validator",
        "result",
        "_pn_next",
        "_sent_markings",
        "_acked",
        "_space_counts",
        "_server_pns",
        "_dcid",
        "_scid",
        "_response_body",
        "_response",
    )

    def __init__(
        self,
        wire: Wire,
        config: QuicClientConfig | None = None,
        *,
        rng=None,
    ):
        self.wire = wire
        self.config = config or QuicClientConfig()
        # The client only draws randomness for §9.3 greasing; seeding a
        # stream costs a SHA-256, so plain scans skip it entirely.
        if rng is None and self.config.grease_ecn:
            from repro.util.rng import RngStream

            rng = RngStream(0, "quic-client")
        self.rng = rng
        self.validator = EcnValidator(config=self.config.validation)
        self.result = QuicConnectionResult()
        self._pn_next: dict[PacketNumberSpace, int] = {
            space: 0 for space in PacketNumberSpace
        }
        self._sent_markings: dict[PacketNumberSpace, dict[int, ECN]] = {
            space: {} for space in PacketNumberSpace
        }
        self._acked: dict[PacketNumberSpace, set[int]] = {
            space: set() for space in PacketNumberSpace
        }
        self._space_counts: dict[PacketNumberSpace, EcnCounts] = {}
        self._server_pns: dict[PacketNumberSpace, set[int]] = {
            space: set() for space in PacketNumberSpace
        }
        self._dcid = b"\x11" * 8
        self._scid = b"\x22" * 8
        self._response_body = bytearray()
        self._response: HttpResponse | None = None

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def fetch(self, target_ip: str, request: HttpRequest) -> QuicConnectionResult:
        """Run the whole exchange; never raises for remote misbehaviour."""
        try:
            self._run(target_ip, request)
        except _ConnectionAbort as abort:
            self.result.error = abort.reason
        self.result.validation_outcome = self.validator.finish()
        self.result.mirroring = self.validator.mirroring_observed
        self.result.marked_sent = self.validator.marked_sent
        self.result.marked_acked = self.validator.marked_acked
        self.result.mirrored_counts = self._aggregate_counts()
        if self._response is not None:
            self.result.server_header = self._response.server_product
            self.result.via_header = self._response.via
            self.result.alt_svc = self._response.alt_svc
            self.result.response_status = self._response.status
        return self.result

    # ------------------------------------------------------------------
    # Connection script
    # ------------------------------------------------------------------
    def _run(self, target_ip: str, request: HttpRequest) -> None:
        version = self.config.versions[0]
        replies = self._send_initial(target_ip, version)
        vn = _find_version_negotiation(replies)
        if vn is not None:
            version = self._pick_version(vn)
            if version is None:
                raise _ConnectionAbort("no common QUIC version")
            # Fresh validator state: a new connection attempt begins.
            replies = self._send_initial(target_ip, version)
            if _find_version_negotiation(replies) is not None:
                raise _ConnectionAbort("version negotiation loop")
        if not replies:
            raise _ConnectionAbort("no response to Initial")
        self.result.version = version
        self._handle_replies(replies)

        # Handshake flight: CRYPTO(finished) + ACK of server handshake pns.
        hs_frames: list[Frame] = [CryptoFrame(0, b"client-finished")]
        if self._server_pns[PacketNumberSpace.HANDSHAKE]:
            hs_frames.append(
                AckFrame.for_packets(self._server_pns[PacketNumberSpace.HANDSHAKE])
            )
        replies = self._send_with_retry(
            target_ip,
            lambda pn: LongHeaderPacket(
                packet_type=PacketType.HANDSHAKE,
                version=version,
                dcid=self._dcid,
                scid=self._scid,
                packet_number=pn,
                frames=tuple(hs_frames),
            ),
            PacketNumberSpace.HANDSHAKE,
        )
        self._handle_replies(replies)

        # Application flight: the GET, spread over request_packets packets.
        chunks = _split_request(request, self.config.request_packets)
        got_any_response = False
        for index, chunk in enumerate(chunks):
            frames: list[Frame] = [
                StreamFrame(
                    stream_id=0,
                    offset=sum(len(c) for c in chunks[:index]),
                    data=chunk,
                    fin=index == len(chunks) - 1,
                )
            ]
            if self._server_pns[PacketNumberSpace.APPLICATION]:
                frames.append(
                    AckFrame.for_packets(self._server_pns[PacketNumberSpace.APPLICATION])
                )
            replies = self._send_with_retry(
                target_ip,
                lambda pn, frames=tuple(frames): ShortHeaderPacket(
                    dcid=self._dcid, packet_number=pn, frames=frames
                ),
                PacketNumberSpace.APPLICATION,
            )
            if replies:
                got_any_response = True
            self._handle_replies(replies)
        if not got_any_response:
            raise _ConnectionAbort("no response to request")
        self.result.connected = True
        for _ in range(self.config.trailing_pings):
            from repro.quic.frames import PingFrame

            replies = self._send_with_retry(
                target_ip,
                lambda pn: ShortHeaderPacket(
                    dcid=self._dcid, packet_number=pn, frames=(PingFrame(),)
                ),
                PacketNumberSpace.APPLICATION,
                retries=0,
            )
            self._handle_replies(replies)
        self._send_packet(
            target_ip,
            ShortHeaderPacket(
                dcid=self._dcid,
                packet_number=self._next_pn(PacketNumberSpace.APPLICATION),
                frames=(ConnectionCloseFrame(error_code=0),),
            ),
            PacketNumberSpace.APPLICATION,
            record=False,
        )

    # ------------------------------------------------------------------
    # Sending helpers
    # ------------------------------------------------------------------
    def _send_initial(self, target_ip: str, version: QuicVersion) -> list[IpPacket]:
        # Initials are identical for every scanned site except the packet
        # number, so the frozen packet template is built once per
        # (version, pn) and shared across all connections (fast path).
        build = lambda pn: _initial_packet(  # noqa: E731 - local factory
            version, self._dcid, self._scid, pn
        )
        return self._send_with_retry(
            target_ip,
            build,
            PacketNumberSpace.INITIAL,
            retries=self.config.initial_retransmissions,
        )

    def _send_with_retry(
        self,
        target_ip: str,
        build,
        space: PacketNumberSpace,
        retries: int | None = None,
    ) -> list[IpPacket]:
        attempts = 1 + (
            retries if retries is not None else self.config.initial_retransmissions
        )
        replies: list[IpPacket] = []
        for attempt in range(attempts):
            packet = build(self._next_pn(space))
            replies = self._send_packet(target_ip, packet, space)
            if replies:
                return replies
            self.validator.on_timeout()
        return replies

    def _send_packet(
        self,
        target_ip: str,
        packet: QuicPacket,
        space: PacketNumberSpace,
        *,
        record: bool = True,
    ) -> list[IpPacket]:
        if self.config.enable_ecn:
            marking = self.validator.marking_for_next_packet()
        else:
            marking = ECN.NOT_ECT
        if record:
            self._sent_markings[space][packet.packet_number] = marking
            if self.config.enable_ecn:
                self.validator.on_packet_sent(marking)
        if (
            marking is ECN.NOT_ECT
            and self.config.grease_ecn
            and self.rng.random() < self.config.grease_probability
        ):
            # Greasing never feeds the validator: the codepoint rides the
            # IP header only, purely to stay visible to the path (§9.3).
            marking = ECN.ECT0
            self.result.greased_sent += 1
        ip_packet = IpPacket(
            version=self.config.ip_version,
            src=self.config.source_ip,
            dst=target_ip,
            ttl=64,
            tos=int(marking),
            payload=UdpPayload(self.config.source_port, QUIC_PORT, packet),
        )
        return self.wire.exchange(ip_packet)

    def _next_pn(self, space: PacketNumberSpace) -> int:
        pn = self._pn_next[space]
        self._pn_next[space] = pn + 1
        return pn

    def _pick_version(self, vn: VersionNegotiationPacket) -> QuicVersion | None:
        for version in self.config.versions:
            if version in vn.supported_versions:
                return version
        return None

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _handle_replies(self, replies: Iterable[IpPacket]) -> None:
        for ip_packet in replies:
            self._record_inbound_ecn(ip_packet)
            quic_packet = ip_packet.payload.data
            if isinstance(quic_packet, VersionNegotiationPacket):
                continue
            space = quic_packet.pn_space
            self._server_pns[space].add(quic_packet.packet_number)
            for frame in quic_packet.frames:
                if isinstance(frame, AckFrame):
                    self._process_ack(space, frame)
                elif isinstance(frame, CryptoFrame):
                    self._process_crypto(frame)
                elif isinstance(frame, StreamFrame):
                    self._process_stream(frame)

    def _record_inbound_ecn(self, ip_packet: IpPacket) -> None:
        codepoint = ip_packet.ecn
        self.result.inbound_ecn_counts = self.result.inbound_ecn_counts.with_observed(
            codepoint
        )
        if codepoint is not ECN.NOT_ECT:
            self.result.server_set_ect = True

    def _process_ack(self, space: PacketNumberSpace, ack: AckFrame) -> None:
        newly_acked_marked = 0
        for pn in ack.acked_packet_numbers():
            if pn in self._acked[space]:
                continue
            if pn not in self._sent_markings[space]:
                continue
            self._acked[space].add(pn)
            if self._sent_markings[space][pn] is not ECN.NOT_ECT:
                newly_acked_marked += 1
        if ack.ecn is not None:
            self._space_counts[space] = ack.ecn
            sample_counts = self._aggregate_counts()
        else:
            sample_counts = None
        self.validator.on_ack(
            AckEcnSample(newly_acked_marked=newly_acked_marked, counts=sample_counts)
        )

    def _aggregate_counts(self) -> EcnCounts | None:
        if not self._space_counts:
            return None
        total = EcnCounts()
        for counts in self._space_counts.values():
            total = total + counts
        return total

    def _process_crypto(self, frame: CryptoFrame) -> None:
        params = _extract_transport_params(frame.data)
        if params is not None:
            self.result.transport_fingerprint = params.fingerprint()

    def _process_stream(self, frame: StreamFrame) -> None:
        if isinstance(frame.data, bytes):
            self._response_body += frame.data
        response = _extract_response(frame)
        if response is not None:
            self._response = response

    @property
    def response(self) -> HttpResponse | None:
        """The parsed HTTP response, if one arrived."""
        return self._response


class _ConnectionAbort(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _find_version_negotiation(
    replies: Iterable[IpPacket],
) -> VersionNegotiationPacket | None:
    for ip_packet in replies:
        payload = ip_packet.payload
        if isinstance(payload, UdpPayload) and isinstance(
            payload.data, VersionNegotiationPacket
        ):
            return payload.data
    return None


# ----------------------------------------------------------------------
# Packet / request templates (the per-exchange fast path)
# ----------------------------------------------------------------------
_CLIENT_HELLO_FRAMES = (CryptoFrame(0, b"client-hello"),)


@lru_cache(maxsize=64)
def _initial_packet(
    version: QuicVersion, dcid: bytes, scid: bytes, pn: int
) -> LongHeaderPacket:
    """Shared frozen Initial template; immutable, so reuse cannot leak
    state between connections (tested in test_quic_connection_edge)."""
    return LongHeaderPacket(
        packet_type=PacketType.INITIAL,
        version=version,
        dcid=dcid,
        scid=scid,
        packet_number=pn,
        frames=_CLIENT_HELLO_FRAMES,
    )


@lru_cache(maxsize=64)
def _request_template(
    method: str, path: str, headers: tuple[tuple[str, str], ...]
) -> tuple[bytes, bytes]:
    """Site-invariant (prefix, suffix) of the encoded GET; only the
    authority between them changes per scanned site."""
    head = f"{method} {path} HTTP/3\r\nauthority: ".encode()
    tail_lines = [f"{key}: {value}" for key, value in headers]
    tail = (
        "\r\n" + "\r\n".join(tail_lines) + "\r\n\r\n" if tail_lines else "\r\n\r\n"
    ).encode()
    return head, tail


# ----------------------------------------------------------------------
# Wire-format helpers
# ----------------------------------------------------------------------
_TP_MAGIC = b"TPRM"

# In-memory registry that lets the simulation attach structured transport
# parameters to CRYPTO bytes without a full TLS implementation.
_params_registry: dict[bytes, TransportParameters] = {}


_params_blob_cache: dict[TransportParameters, bytes] = {}


def embed_transport_params(params: TransportParameters) -> bytes:
    """Serialise transport parameters into a CRYPTO payload blob.

    Memoized per parameter set: server stacks embed the same week-invariant
    parameters into every handshake, so the varint encoding runs once.
    """
    blob = _params_blob_cache.get(params)
    if blob is None:
        blob = _TP_MAGIC + params.encode()
        _params_registry[blob] = params
        _params_blob_cache[params] = blob
    return blob


def _extract_transport_params(data: bytes) -> TransportParameters | None:
    if not data.startswith(_TP_MAGIC):
        return None
    cached = _params_registry.get(data)
    if cached is not None:
        return cached
    return TransportParameters.decode(data[len(_TP_MAGIC) :])


def _extract_response(frame: StreamFrame) -> HttpResponse | None:
    # Simulation hot path: stacks attach the structured response directly.
    if isinstance(frame.data, HttpResponse):
        return frame.data
    return None


def _split_request(request: HttpRequest, parts: int) -> list[bytes]:
    """Encode the GET and split it across ``parts`` stream chunks."""
    head, tail = _request_template(request.method, request.path, request.headers)
    raw = head + request.authority.encode() + tail
    parts = max(1, parts)
    chunk_size = max(1, (len(raw) + parts - 1) // parts)
    chunks = [raw[i : i + chunk_size] for i in range(0, len(raw), chunk_size)]
    while len(chunks) < parts:
        chunks.append(b"")
    return chunks[:parts]
