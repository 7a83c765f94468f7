"""Shard-result codec: round-trip fidelity (property-based + real runs)."""

from __future__ import annotations

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.counters import EcnCounts
from repro.core.validation import ValidationOutcome
from repro.quic.connection import QuicConnectionResult
from repro.quic.versions import QuicVersion
from repro.store import codec
from repro.store.codec import (
    MAGIC,
    StringTable,
    decode_shard_results,
    encode_shard_results,
)
from repro.tcp.client import TcpScanOutcome
from repro.tcp.ebpf import CodepointCounter
from repro.web.spec import WorldConfig

from tests.differential import CAMPAIGN_PLUGINS, CAMPAIGN_WEEKS, campaign_world

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


# ----------------------------------------------------------------------
# One encode and one decode per distinct result
# ----------------------------------------------------------------------
plugin_rows = st.lists(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False)
    | st.text(max_size=12),
    min_size=1,
    max_size=5,
).map(tuple)


@pytest.fixture(scope="module")
def serial_weeks():
    """The canonical campaign's weeks on one serial engine, as entries
    its checkpoints persist, with TCP on so QUIC results, TCP results
    and plugin rows all appear; replay hits share objects."""
    engine = campaign_world().scan_engine()
    weeks = []
    for week in CAMPAIGN_WEEKS:
        sink: list = []
        engine.run_week(
            week,
            populations=("cno",),
            include_tcp=True,
            plugins=CAMPAIGN_PLUGINS,
            entry_sink=sink,
        )
        weeks.append(sink)
    return weeks


def _unshared(result):
    """An equal result that shares no object with ``result``
    (``copy.deepcopy`` returns a tuple of immutables itself)."""
    if isinstance(result, tuple):
        return tuple(list(result))
    return copy.deepcopy(result)


def _result_encodings(entries):
    """Each entry's result bytes, as one buffer of ``entries`` holds them."""
    table = StringTable()
    return [codec._encode_result(result, table) for _, _, result, _ in entries]


def _distinct_ids(entries, kind=object):
    return len({id(result) for _, _, result, _ in entries if isinstance(result, kind)})


def test_memo_encodes_shared_results_like_unshared_copies(serial_weeks):
    for entries in serial_weeks:
        assert _distinct_ids(entries) < len(entries)  # replay hits share
        copies = [(site, kind, _unshared(r), e) for site, kind, r, e in entries]
        results = [result for _, _, result, _ in copies if result is not None]
        assert len({id(result) for result in results}) == len(results)
        assert encode_shard_results(copies) == encode_shard_results(entries)


def test_memo_survives_recycled_ids(serial_weeks):
    """Fresh temporaries from a generator die right after their entry,
    so CPython hands their ids to later, different results."""
    for entries in serial_weeks:
        fresh = ((site, kind, _unshared(r), e) for site, kind, r, e in entries)
        assert encode_shard_results(fresh) == encode_shard_results(entries)


def test_memo_encodes_each_distinct_result_once(serial_weeks, monkeypatch):
    """A serial engine shares QUIC and TCP results; a decoded buffer
    (a pool parent's, a resumed campaign's) shares plugin rows too."""
    calls: list[object] = []
    encode_result = codec._encode_result

    def counting(result, table):
        calls.append(result)
        return encode_result(result, table)

    monkeypatch.setattr(codec, "_encode_result", counting)
    for entries in serial_weeks:
        decoded = decode_shard_results(encode_shard_results(entries))
        for shard, kinds in (
            (entries, (QuicConnectionResult, TcpScanOutcome)),
            (decoded, (QuicConnectionResult, TcpScanOutcome, tuple)),
        ):
            calls.clear()
            encode_shard_results(shard)
            for kind in kinds:
                count = sum(isinstance(result, kind) for _, _, result, _ in shard)
                encoded = sum(isinstance(result, kind) for result in calls)
                assert encoded == _distinct_ids(shard, kind) < count, kind.__name__


def test_mixed_buffer_round_trips_with_shared_results():
    quic = QuicConnectionResult(connected=True, server_header="LiteSpeed", marked_sent=10)
    tcp = TcpScanOutcome(connected=True, server_header="LiteSpeed", response_status=200)
    row = ("grease", 3, True, None, -2, 0.25)
    shard = [(i, i % 2, (quic, tcp, row, None)[i % 4], i / 8) for i in range(32)]
    buf = encode_shard_results(shard)
    decoded = decode_shard_results(buf)
    assert decoded == shard
    for (_, _, result, _), (_, _, twin, _) in zip(decoded, decoded[4:]):
        assert result is twin
    assert encode_shard_results(decoded) == buf


def _assert_shared_decode(buf, decoded):
    """Entries with identical result bytes hold one object, distinct
    bytes distinct objects, and re-encoding gives ``buf`` back."""
    by_bytes: dict[bytes, object] = {}
    for encoding, (_, _, result, _) in zip(
        _result_encodings(decoded), decoded, strict=True
    ):
        assert by_bytes.setdefault(encoding, result) is result
    assert _distinct_ids(decoded) == len(by_bytes)
    assert encode_shard_results(decoded) == buf


def test_decode_shares_one_object_per_distinct_result_bytes(serial_weeks):
    for entries in serial_weeks:
        buf = encode_shard_results(entries)
        decoded = decode_shard_results(buf)
        assert decoded == entries
        assert _distinct_ids(decoded) < len(decoded)
        _assert_shared_decode(buf, decoded)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.none() | quic_results | tcp_outcomes | plugin_rows, min_size=1, max_size=6),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**31),
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=5),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        max_size=24,
    ),
)
def test_shared_decode_round_trips_repeated_results(results, picks):
    """Results of many lengths, repeated in any order, as unshared
    copies: each decodes equal to its original, once per distinct
    encoding."""
    shard = [
        (site, kind, _unshared(results[pick % len(results)]), elapsed)
        for site, kind, pick, elapsed in picks
    ]
    buf = encode_shard_results(shard)
    decoded = decode_shard_results(buf)
    assert decoded == shard
    _assert_shared_decode(buf, decoded)
