"""Shared fixtures.

Heavy world builds and scan runs are session-scoped: the analysis tests
all interrogate the same deterministic runs, which keeps the suite fast
without sacrificing coverage.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

import repro
from repro.core.codepoints import ECN
from repro.scanner.quic_scan import QuicScanConfig
from repro.util import shm
from repro.web.spec import WorldConfig

#: Coarse world: fast structural tests.
SMALL_SCALE = 20_000
#: Calibration world: shape assertions against the paper's percentages.
SHAPE_SCALE = 2_000

#: Platform gate for the shm pool.  Tests that fork its worker
#: processes skip with a reason instead of erroring on platforms without fork;
#: /dev/shm-specific assertions additionally branch on the segment
#: backend (the mmap fallback never appears there).
FORK_AVAILABLE = shm.fork_available()
requires_fork = pytest.mark.skipif(
    not FORK_AVAILABLE,
    reason="fork-pool executors need the fork start method (POSIX)",
)


def pool_path_kwargs(path, plan=None):
    """``run_campaign`` kwargs that route every shm-pool ticket down ``path``.

    A pool ticket's results reach the parent one of two ways: computed
    in a forked worker (``"process"``), or re-executed inline in the
    parent by the supervision fallback (``"inline"``).  The inline path
    is forced by corrupting every worker result buffer and allowing no
    re-dispatch.  ``plan`` carries the caller's other fault rules; it is
    extended in place.
    """
    if path == "process":
        return {"fault_plan": plan} if plan is not None else {}
    if path != "inline":
        raise ValueError(f"unknown pool path: {path!r}")
    from repro.faults import FaultPlan

    plan = plan if plan is not None else FaultPlan(seed=3)
    plan.corrupt_shard_buffer(attempt=None)
    return {"fault_plan": plan, "max_shard_retries": 0}


@pytest.fixture(scope="session", autouse=True)
def _no_leaked_segments_or_workers():
    """Fail the suite if any test leaks a shared segment or a worker.

    Checks the process-level segment registry (covers the mmap fallback
    too), the OS view under /dev/shm, and live multiprocessing children
    (pool workers that were never terminated).  Runs after the whole
    session so a leak anywhere in the suite is caught even if the
    leaking test itself passed.
    """
    shm_dir = "/dev/shm"
    before = (
        {name for name in os.listdir(shm_dir) if name.startswith(shm.SEGMENT_PREFIX)}
        if os.path.isdir(shm_dir)
        else set()
    )
    yield
    leaked = shm.live_segments()
    assert not leaked, f"test suite leaked shared segments: {leaked}"
    if os.path.isdir(shm_dir):
        after = {
            name for name in os.listdir(shm_dir) if name.startswith(shm.SEGMENT_PREFIX)
        }
        assert after <= before, f"/dev/shm segments leaked: {sorted(after - before)}"
    # Terminated pools reap their workers asynchronously; give stragglers
    # a beat before declaring them leaked.
    deadline = time.monotonic() + 5.0
    children = multiprocessing.active_children()
    while children and time.monotonic() < deadline:
        time.sleep(0.05)
        children = multiprocessing.active_children()
    assert not children, f"worker processes leaked: {children}"


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
