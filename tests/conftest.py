"""Shared fixtures.

Heavy world builds and scan runs are session-scoped: the analysis tests
all interrogate the same deterministic runs, which keeps the suite fast
without sacrificing coverage.  The differential harness's two
configurations (``tests/differential.py``) are session fixtures too:
each execution path is computed once and every test compares against
the same oracle.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

import repro
from repro.core.codepoints import ECN
from repro.scanner.quic_scan import QuicScanConfig
from repro.web.spec import WorldConfig

from tests import differential
# The pool platform gate, re-exported for the test modules.
from tests.differential import requires_fork  # noqa: F401

#: Coarse world: fast structural tests.
SMALL_SCALE = 20_000
#: Calibration world: shape assertions against the paper's percentages.
SHAPE_SCALE = 2_000

@pytest.fixture(scope="session", autouse=True)
def _no_leaked_workers():
    """Fail the suite if any test leaks a worker.

    Checks live multiprocessing children (pool workers that were never
    terminated) after the whole session, so a leak anywhere in the
    suite is caught even if the leaking test itself passed.
    """
    yield
    # Terminated pools reap their workers asynchronously; give stragglers
    # a beat before declaring them leaked.
    deadline = time.monotonic() + 5.0
    children = multiprocessing.active_children()
    while children and time.monotonic() < deadline:
        time.sleep(0.05)
        children = multiprocessing.active_children()
    assert not children, f"worker processes leaked: {children}"


@pytest.fixture(scope="session")
def campaign_legs():
    """The canonical campaign's legs (``tests/differential.py``)."""
    return differential.campaign_legs()


@pytest.fixture(scope="session")
def week_matrix():
    """The vantage x family week matrix's legs (``tests/differential.py``)."""
    return differential.week_matrix()


@pytest.fixture(scope="session")
def small_world():
    return repro.build_world(WorldConfig(scale=SMALL_SCALE))


@pytest.fixture(scope="session")
def shape_world():
    return repro.build_world(WorldConfig(scale=SHAPE_SCALE))


@pytest.fixture(scope="session")
def reference_run(shape_world):
    """IPv4 week-15/2023 run with tracebox (Tables 1-7 source)."""
    return repro.run_weekly_scan(
        shape_world, shape_world.config.reference_week, plugins=("ecn", "trace")
    )


@pytest.fixture(scope="session")
def ipv6_run(shape_world):
    """IPv6 week-13/2023 run (Table 5 / Figure 5 source)."""
    return repro.run_weekly_scan(
        shape_world,
        shape_world.config.ipv6_week,
        ip_version=6,
        populations=("cno",),
    )


@pytest.fixture(scope="session")
def tcp_quic_run(shape_world):
    """Week-20/2023 CE-probing TCP+QUIC run (Figure 6 source)."""
    return repro.run_weekly_scan(
        shape_world,
        shape_world.config.tcp_week,
        populations=("cno",),
        include_tcp=True,
        quic_config=QuicScanConfig(probe_codepoint=ECN.CE),
    )


@pytest.fixture(scope="session")
def campaign(shape_world):
    """Three-snapshot longitudinal campaign (Figures 3/4/8 source)."""
    from repro.util.weeks import Week

    return repro.run_campaign(
        shape_world, weeks=[Week(2022, 22), Week(2023, 5), Week(2023, 15)]
    )
