"""repro - reproduction of "ECN with QUIC: Challenges in the Wild" (IMC '23).

Quickstart::

    from repro import build_world, run_weekly_scan, table1
    from repro.web.spec import WorldConfig

    world = build_world(WorldConfig(scale=20_000))
    run = run_weekly_scan(world, world.config.reference_week)
    for row in table1(run):
        print(row)

The package layers (bottom-up): :mod:`repro.core` (ECN codepoints +
RFC 9000 validation), :mod:`repro.netsim` (packets, impairing routers,
ICMP), :mod:`repro.quic` / :mod:`repro.tcp` / :mod:`repro.http` /
:mod:`repro.dns` (protocol substrates), :mod:`repro.quicstacks` (server
behaviour emulations), :mod:`repro.web` (the calibrated world),
:mod:`repro.asdb` (IP->AS->org), :mod:`repro.scanner` /
:mod:`repro.tracebox` / :mod:`repro.pipeline` (measurements), and
:mod:`repro.analysis` (every table and figure of the evaluation).
"""

from repro.core import (
    ECN,
    AckEcnSample,
    EcnCounts,
    EcnSupport,
    EcnValidator,
    ValidationConfig,
    ValidationOutcome,
    ValidationState,
)
from repro.analysis import (
    ValidationClass,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    parking_summary,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
)
from repro.pipeline import (
    Campaign,
    WeeklyRun,
    run_campaign,
    run_distributed,
    run_weekly_scan,
)
from repro.util.weeks import Week
from repro.web import World, WorldConfig, build_world

__version__ = "1.0.0"

__all__ = [
    "ECN",
    "AckEcnSample",
    "EcnCounts",
    "EcnSupport",
    "EcnValidator",
    "ValidationConfig",
    "ValidationOutcome",
    "ValidationState",
    "ValidationClass",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "parking_summary",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "Campaign",
    "WeeklyRun",
    "run_campaign",
    "run_distributed",
    "run_weekly_scan",
    "Week",
    "World",
    "WorldConfig",
    "build_world",
    "__version__",
]
