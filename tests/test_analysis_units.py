"""Unit-level tests for aggregation and classification helpers,
driven by hand-built observations (no world needed)."""

import ast
from pathlib import Path

import pytest

import repro.analysis
from repro.analysis.aggregate import org_ecn_counts, rank_map
from repro.analysis.classify import (
    ValidationClass,
    quic_group,
    support_group,
    tcp_group,
    validation_class,
)
from repro.core.validation import ValidationOutcome
from repro.pipeline.runs import WeeklyRun
from repro.quic.connection import QuicConnectionResult
from repro.scanner.results import DomainObservation
from repro.tcp.client import TcpScanOutcome
from repro.util.weeks import Week


def obs(
    *,
    org="OrgA",
    ip="10.0.0.1",
    connected=True,
    mirroring=False,
    outcome=ValidationOutcome.NO_MIRRORING,
    use=False,
    tcp=None,
) -> DomainObservation:
    quic = QuicConnectionResult(
        connected=connected,
        mirroring=mirroring,
        validation_outcome=outcome,
        server_set_ect=use,
    )
    return DomainObservation(
        domain=f"d-{org}-{ip}.com",
        population="cno",
        lists=("cno",),
        parked=False,
        resolved=True,
        ip=ip,
        org=org,
        site_index=0,
        quic_attempted=True,
        quic=quic,
        tcp=tcp,
    )


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "outcome,expected",
    [
        (ValidationOutcome.CAPABLE, ValidationClass.CAPABLE),
        (ValidationOutcome.UNDERCOUNT, ValidationClass.UNDERCOUNT),
        (ValidationOutcome.WRONG_CODEPOINT, ValidationClass.REMARK_ECT1),
        (ValidationOutcome.ALL_CE, ValidationClass.ALL_CE),
        (ValidationOutcome.NON_MONOTONIC, ValidationClass.NON_MONOTONIC),
        (ValidationOutcome.BLACKHOLE, ValidationClass.BLACKHOLE),
        (ValidationOutcome.NO_MIRRORING, ValidationClass.NO_MIRRORING),
    ],
)
def test_validation_class_mapping(outcome, expected):
    assert validation_class(obs(outcome=outcome)) is expected


def test_unconnected_is_unavailable():
    assert validation_class(obs(connected=False)) is ValidationClass.UNAVAILABLE


def test_support_group_labels():
    assert support_group(obs(mirroring=True, use=True)) == "Mirroring, Use"
    assert support_group(obs(mirroring=False, use=True)) == "No Mirroring, Use"
    assert support_group(obs(connected=False)) == "Unavailable"


def test_quic_group_labels():
    assert quic_group(obs(mirroring=True)) == "CE Mirroring, No Use"
    assert quic_group(obs(connected=False)) == "No QUIC"


def test_tcp_group_labels():
    full = TcpScanOutcome(
        connected=True, ecn_negotiated=True, ce_mirrored=True, server_set_ect=True
    )
    assert tcp_group(obs(tcp=full)) == "CE Mirroring, Use, Negotiation"
    no_neg = TcpScanOutcome(connected=True, ecn_negotiated=False)
    assert tcp_group(obs(tcp=no_neg)) == "No Negotiation"
    assert tcp_group(obs(tcp=None)) is None
    dead = TcpScanOutcome(connected=False)
    assert tcp_group(obs(tcp=dead)) is None


def test_server_label_classification():
    record = obs()
    assert record.server_label == "Unknown"  # connected, no header
    record.quic.server_header = "LiteSpeed"
    assert record.server_label == "LiteSpeed"
    record.quic.server_header = "nginx"
    assert record.server_label == "Other"
    record.quic.connected = False
    assert record.server_label == "Unavailable"


# ----------------------------------------------------------------------
# aggregate
# ----------------------------------------------------------------------
def test_org_ecn_counts_skips_unconnected():
    observations = [
        obs(org="A", mirroring=True, use=True),
        obs(org="A", connected=False),
        obs(org="B"),
    ]
    run = WeeklyRun(
        week=Week(2023, 1), vantage_id="v", ip_version=4, observations=observations
    )
    rows = {c.org: c for c in org_ecn_counts(run, "cno")}
    assert rows["A"].total == 1
    assert rows["A"].mirroring == 1
    assert rows["A"].use == 1
    assert rows["B"].mirroring == 0


def test_rank_map_dense_with_stable_ties():
    ranks = rank_map({"x": 5, "y": 5, "z": 1})
    assert ranks["x"] == 1  # tie broken alphabetically
    assert ranks["y"] == 2
    assert ranks["z"] == 3


#: Names that tell a store-backed run from a reference-loop run.
_RUN_SHAPE_NAMES = {"StoreWeeklyRun", "ObservationStore", "StoreObservations", "store_slice"}


def test_only_the_unit_adapter_tells_run_shapes_apart():
    """Every analysis module but ``units`` has one body per builder: it
    neither imports nor names the store's run types."""
    offenders = []
    for path in sorted(Path(repro.analysis.__file__).parent.glob("*.py")):
        if path.name == "units.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            if name in _RUN_SHAPE_NAMES:
                offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert not offenders, offenders


# ----------------------------------------------------------------------
# DomainObservation derived properties
# ----------------------------------------------------------------------
def test_observation_support_flags():
    record = obs(mirroring=True, outcome=ValidationOutcome.CAPABLE, use=True)
    support = record.support
    assert support.full_use
    assert record.quic_available
    assert record.uses_ecn


def test_observation_without_quic():
    record = DomainObservation(
        domain="x.com",
        population="cno",
        lists=("cno",),
        parked=False,
        resolved=False,
    )
    assert not record.quic_available
    assert record.support is None
    assert record.validation_outcome is None
    assert record.version_label is None
