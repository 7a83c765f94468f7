"""QUIC HTTP/3 ECN scan of one server site (§4.1).

The scan issues a single HTTPS GET to the ``www`` name, never follows
``Location`` or ``Alt-Svc``, uses the adapted retransmission behaviour
(one Initial retransmission) and the reduced ECN validation budget of
5 packets / 2 timeouts.

The exchange itself lives in :mod:`repro.exchange.core`: this module
derives the inputs capsule (client config, week-resolved behaviour,
ECMP path member, canned response) and hands it to the pure executor —
the same two-stage split the engine's replay cache keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core.codepoints import ECN
from repro.core.validation import ValidationConfig
from repro.exchange.core import (
    DEAD_TARGET_TIMEOUT,
    ExchangeInputs,
    quic_exchange_inputs,
    run_quic_exchange,
)
from repro.netsim.clock import Clock
from repro.quic.connection import QuicClientConfig, QuicConnectionResult
from repro.util.rng import RngStream
from repro.util.weeks import Week
from repro.web.world import Site, World

__all__ = [
    "DEAD_TARGET_TIMEOUT",
    "QuicScanConfig",
    "quic_client_config",
    "scan_site_quic",
]


@dataclass(frozen=True)
class QuicScanConfig:
    """Scan parameters (defaults follow the paper's adaptations)."""

    probe_codepoint: ECN = ECN.ECT0
    testing_packets: int = 5
    max_timeouts: int = 2
    ip_version: int = 4
    #: 1-RTT packets carrying the GET; None sizes the request so the whole
    #: testing budget is spent (budget - initial - handshake packets).
    request_packets: int | None = None

    def effective_request_packets(self) -> int:
        if self.request_packets is not None:
            return self.request_packets
        return max(1, self.testing_packets - 2)

    def validation(self) -> ValidationConfig:
        return ValidationConfig(
            testing_packets=self.testing_packets,
            max_timeouts=self.max_timeouts,
            probe_codepoint=self.probe_codepoint,
        )


@lru_cache(maxsize=128)
def quic_client_config(config: QuicScanConfig, source_ip: str) -> QuicClientConfig:
    """Week- and site-invariant client config per (scan config, vantage).

    Both inputs are frozen, so one immutable config object (and its
    embedded :class:`ValidationConfig`) is shared by every exchange a
    campaign issues instead of being rebuilt per site per week — and
    the replay cache can token it by identity after the first hash.
    """
    return QuicClientConfig(
        validation=config.validation(),
        source_ip=source_ip,
        ip_version=config.ip_version,
        request_packets=config.effective_request_packets(),
    )


def scan_site_quic(
    world: World,
    site: Site,
    week: Week,
    vantage_id: str = "main-aachen",
    config: QuicScanConfig | None = None,
    *,
    authority: str | None = None,
    rng: RngStream | None = None,
    clock: Clock | None = None,
    inputs: ExchangeInputs | None = None,
) -> QuicConnectionResult:
    """Run the QUIC ECN scan against one site.

    Returns a (possibly failed) :class:`QuicConnectionResult`; an
    unreachable or QUIC-less site yields ``connected=False``.
    ``rng``/``clock`` override the world's network stream and virtual
    clock — the scan engine passes per-site substreams and clocks here.
    ``inputs`` skips re-deriving the exchange capsule for callers (the
    replay cache) that already hold it.
    """
    config = config or QuicScanConfig()
    if inputs is None:
        client_config = quic_client_config(
            config, world.vantages[vantage_id].source_ip
        )
        inputs = quic_exchange_inputs(world, site, week, vantage_id, client_config)
    return run_quic_exchange(
        world,
        inputs,
        week,
        vantage_id,
        authority or f"www.{site.route_key.split('/')[0]}.example",
        rng=rng,
        clock=clock,
    )
