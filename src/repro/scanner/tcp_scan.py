"""TCP HTTP ECN scan of one server site (§4.1, §6.3).

Like :mod:`repro.scanner.quic_scan`, a thin input-derivation layer over
the pure exchange core in :mod:`repro.exchange.core`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core.codepoints import ECN
from repro.exchange.core import (
    DEAD_TARGET_TIMEOUT,
    ExchangeInputs,
    run_tcp_exchange,
    tcp_exchange_inputs,
)
from repro.netsim.clock import Clock
from repro.tcp.client import TcpClientConfig, TcpScanOutcome
from repro.util.rng import RngStream
from repro.util.weeks import Week
from repro.web.world import Site, World

__all__ = [
    "DEAD_TARGET_TIMEOUT",
    "TcpScanConfig",
    "scan_site_tcp",
    "tcp_client_config",
]


@dataclass(frozen=True)
class TcpScanConfig:
    """TCP scan parameters; CE probing is the §6.3 comparison mode."""

    probe_codepoint: ECN = ECN.CE
    ip_version: int = 4


@lru_cache(maxsize=128)
def tcp_client_config(config: TcpScanConfig, source_ip: str) -> TcpClientConfig:
    """Invariant client config per (scan config, vantage); see quic_scan."""
    return TcpClientConfig(
        probe_codepoint=config.probe_codepoint,
        source_ip=source_ip,
        ip_version=config.ip_version,
    )


def scan_site_tcp(
    world: World,
    site: Site,
    week: Week,
    vantage_id: str = "main-aachen",
    config: TcpScanConfig | None = None,
    *,
    authority: str | None = None,
    rng: RngStream | None = None,
    clock: Clock | None = None,
    inputs: ExchangeInputs | None = None,
) -> TcpScanOutcome:
    """Run the TCP ECN scan against one site.

    ``rng``/``clock`` override the shared network stream and clock for
    per-site execution, exactly as in :func:`scan_site_quic`; ``inputs``
    skips re-deriving the exchange capsule.
    """
    config = config or TcpScanConfig()
    if inputs is None:
        client_config = tcp_client_config(
            config, world.vantages[vantage_id].source_ip
        )
        inputs = tcp_exchange_inputs(world, site, week, vantage_id, client_config)
    return run_tcp_exchange(
        world,
        inputs,
        week,
        vantage_id,
        authority or f"www.{site.route_key.split('/')[0]}.example",
        rng=rng,
        clock=clock,
    )
