"""Shared state for the benchmark harness.

Every harness regenerates one table or figure of the paper and prints
the reproduced values next to the published ones.  The world runs at
scale 1 : 2000 (one simulated domain per 2000 real ones); multiply
reproduced counts by ``SCALE`` to compare against paper-scale numbers.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.codepoints import ECN
from repro.scanner.quic_scan import QuicScanConfig
from repro.util.weeks import Week
from repro.web.spec import WorldConfig

SCALE = 2_000

SNAPSHOTS = (Week(2022, 22), Week(2023, 5), Week(2023, 15))


def paper(value_at_paper_scale: float) -> str:
    """Format a paper value at world scale for side-by-side printing."""
    return f"{value_at_paper_scale / SCALE:,.1f}"


@pytest.fixture(scope="session")
def world():
    return repro.build_world(WorldConfig(scale=SCALE))


@pytest.fixture(scope="session")
def main_run(world):
    """IPv4 reference run (week 15/2023) incl. tracebox."""
    return repro.run_weekly_scan(world, world.config.reference_week, plugins=("ecn", "trace"))


@pytest.fixture(scope="session")
def ipv6_run(world):
    return repro.run_weekly_scan(
        world, world.config.ipv6_week, ip_version=6, populations=("cno",)
    )


@pytest.fixture(scope="session")
def tcp_quic_run(world):
    return repro.run_weekly_scan(
        world,
        world.config.tcp_week,
        populations=("cno",),
        include_tcp=True,
        quic_config=QuicScanConfig(probe_codepoint=ECN.CE),
    )


@pytest.fixture(scope="session")
def campaign(world):
    return repro.run_campaign(world, weeks=list(SNAPSHOTS))


@pytest.fixture(scope="session")
def distributed_v4(world, main_run):
    return repro.run_distributed(world, main_run=main_run)


@pytest.fixture(scope="session")
def distributed_v6(world):
    return repro.run_distributed(world, ip_version=6)
