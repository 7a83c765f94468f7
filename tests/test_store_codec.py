"""Shard-result codec: round-trip fidelity (property-based + real runs)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.counters import EcnCounts
from repro.core.validation import ValidationOutcome
from repro.quic.connection import QuicConnectionResult
from repro.quic.versions import QuicVersion
from repro.store.codec import MAGIC, decode_shard_results, encode_shard_results
from repro.tcp.client import TcpScanOutcome
from repro.tcp.ebpf import CodepointCounter
from repro.web.spec import WorldConfig

counts = st.integers(min_value=0, max_value=2**40)
opt_text = st.none() | st.text(max_size=40)


ecn_counts = st.builds(EcnCounts, ect0=counts, ect1=counts, ce=counts)

quic_results = st.builds(
    QuicConnectionResult,
    connected=st.booleans(),
    version=st.none() | st.sampled_from(list(QuicVersion)),
    server_header=opt_text,
    via_header=opt_text,
    alt_svc=opt_text,
    response_status=st.none() | st.integers(min_value=0, max_value=999),
    transport_fingerprint=st.none()
    | st.tuples()
    | st.lists(st.tuples(counts, counts), max_size=8).map(tuple),
    mirroring=st.booleans(),
    validation_outcome=st.sampled_from(list(ValidationOutcome)),
    server_set_ect=st.booleans(),
    inbound_ecn_counts=ecn_counts,
    marked_sent=counts,
    marked_acked=counts,
    mirrored_counts=st.none() | ecn_counts,
    greased_sent=counts,
    error=opt_text,
)

tcp_outcomes = st.builds(
    TcpScanOutcome,
    connected=st.booleans(),
    ecn_negotiated=st.booleans(),
    ce_mirrored=st.booleans(),
    server_set_ect=st.booleans(),
    response_status=st.none() | st.integers(min_value=0, max_value=999),
    server_header=opt_text,
    inbound=st.builds(
        CodepointCounter,
        not_ect=counts,
        ect0=counts,
        ect1=counts,
        ce=counts,
        ece_flags=counts,
        cwr_flags=counts,
    ),
    error=opt_text,
)

entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=1),
        st.none() | quic_results | tcp_outcomes,
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(entries)
def test_codec_round_trips_arbitrary_entries(shard):
    buf = encode_shard_results(shard)
    decoded = decode_shard_results(buf)
    assert len(decoded) == len(shard)
    for (site, kind, result, elapsed), (d_site, d_kind, d_result, d_elapsed) in zip(
        shard, decoded, strict=True
    ):
        assert d_site == site
        assert d_kind == kind
        assert d_result == result
        # Bit-exact elapsed round-trip (the merged clock must not drift).
        assert math.copysign(1.0, d_elapsed) == math.copysign(1.0, elapsed)
        assert d_elapsed == elapsed


def test_codec_deduplicates_repeated_strings():
    result = QuicConnectionResult(connected=True, server_header="LiteSpeed")
    many = [(i, 0, result, 0.5) for i in range(64)]
    buf = encode_shard_results(many)
    assert buf.count(b"LiteSpeed") == 1
    assert decode_shard_results(buf)[63][2] == result


def test_codec_rejects_foreign_buffers_and_types():
    with pytest.raises(ValueError):
        decode_shard_results(b"NOTASHARD" + bytes(32))
    with pytest.raises(TypeError):
        encode_shard_results([(1, 0, object(), 0.0)])


def test_codec_round_trips_a_real_shard():
    """Encode/decode the exact entries a pool worker would ship for the
    first half of the site range."""
    world = repro.build_world(WorldConfig(scale=40_000))
    engine = world.scan_engine()
    week = world.config.reference_week
    events = engine.site_events(week, include_tcp=True)
    half = len(world.sites) // 2
    ticket = [event for event in events if event.site_index < half]
    from repro.scanner.quic_scan import QuicScanConfig
    from repro.scanner.tcp_scan import TcpScanConfig

    produced = engine._execute_entries(
        ticket, week, "main-aachen", 4, QuicScanConfig(), TcpScanConfig()
    )
    assert produced
    decoded = decode_shard_results(encode_shard_results(produced))
    assert decoded == produced
    assert encode_shard_results(produced)[: len(MAGIC)] == MAGIC
