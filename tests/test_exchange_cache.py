"""Exchange replay cache: key properties, accounting, event ordering.

The key derivation's contract (property-tested here) is that no two
exchanges differing in an outcome-relevant input ever share a key —
client config, server behaviour / TCP profile, concrete path member,
response flavour, kind, and the dead/no-address cases — while inputs
that are *equal by value* (the same behaviour epoch resolved for two
different weeks) share one.  Exchanges whose path may draw randomness
must not be cacheable at all.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.validation import ValidationConfig
from repro.exchange import (
    QUIC_EXCHANGE,
    TCP_EXCHANGE,
    ExchangeCache,
    ExchangeInputs,
    ExchangeOutcome,
    RecordingClock,
    replay_outcome,
)
from repro.http.messages import HttpResponse
from repro.netsim.clock import Clock
from repro.netsim.hops import EcnAction, Router
from repro.netsim.path import NetworkPath
from repro.pipeline.engine import QUIC_EVENT, TCP_EVENT, ScanPhaseStats, SiteEvent
from repro.quic.connection import QuicClientConfig
from repro.tcp.client import TcpClientConfig
from repro.quicstacks.base import MirrorQuirk, StackBehavior
from repro.store.codec import decode_shard_payload_obs, encode_shard_results
from repro.tcp.profiles import TcpProfile
from repro.web.spec import WorldConfig

SCALE = 40_000


def _router(**kwargs) -> Router:
    defaults = dict(name="r", asn=1, address="10.0.0.1")
    defaults.update(kwargs)
    return Router(**defaults)


def _path(hop_count=3, **router_kwargs) -> NetworkPath:
    return NetworkPath(hops=[_router(**router_kwargs) for _ in range(hop_count)])


#: Identity-keyed pool — the cache tokens paths by object identity
#: (route templates are fixed at world build), so the pool must hand
#: out the *same* objects across strategy draws.
PATHS = [_path(), _path(), _path(ecn_action=EcnAction.REMARK_ECT1)]

CLIENT_CONFIG_PARAMS = [
    dict(source_ip="192.0.2.1", ip_version=4),
    dict(source_ip="192.0.2.1", ip_version=6),
    dict(source_ip="198.51.100.7", ip_version=4),
    dict(
        source_ip="192.0.2.1",
        ip_version=4,
        validation=ValidationConfig(testing_packets=10, max_timeouts=3),
    ),
]

BEHAVIOR_PARAMS = [
    dict(stack_label="lsquic", server_header="LiteSpeed"),
    dict(stack_label="lsquic", server_header="LiteSpeed", mirror_quirk=MirrorQuirk.CORRECT),
    dict(stack_label="generic", server_header="nginx", use_ecn=True),
]

RESPONSES = [
    HttpResponse(status=200, headers=(("content-type", "text/html"),)),
    HttpResponse(
        status=200,
        headers=(("content-type", "text/html"), ("alt-svc", 'h3=":443"; ma=86400')),
    ),
]


def _quic_inputs(config_index: int, behavior_index: int, path_index: int, response_index: int):
    """Inputs rebuilt *by value* each call: equal draws must share a key."""
    config = QuicClientConfig(**CLIENT_CONFIG_PARAMS[config_index])
    behavior = StackBehavior(**BEHAVIOR_PARAMS[behavior_index])
    return ExchangeInputs(
        QUIC_EXCHANGE,
        config.ip_version,
        "100.64.0.1",
        "route",
        config,
        behavior=behavior,
        response=RESPONSES[response_index],
        path=PATHS[path_index],
    )


quic_specs = st.tuples(
    st.integers(0, len(CLIENT_CONFIG_PARAMS) - 1),
    st.integers(0, len(BEHAVIOR_PARAMS) - 1),
    st.integers(0, len(PATHS) - 1),
    st.integers(0, len(RESPONSES) - 1),
)


@settings(max_examples=200)
@given(spec_a=quic_specs, spec_b=quic_specs)
def test_key_collides_exactly_when_outcome_relevant_inputs_match(spec_a, spec_b):
    cache = ExchangeCache()
    key_a = cache.key_for(_quic_inputs(*spec_a))
    key_b = cache.key_for(_quic_inputs(*spec_b))
    assert key_a is not None and key_b is not None
    if spec_a == spec_b:
        assert key_a == key_b  # equal values, freshly built objects
    else:
        assert key_a != key_b


@settings(max_examples=60)
@given(
    profile_a=st.sampled_from(list(TcpProfile)),
    profile_b=st.sampled_from(list(TcpProfile)),
    path_index=st.integers(0, len(PATHS) - 1),
)
def test_tcp_keys_separate_profiles_and_kinds(profile_a, profile_b, path_index):
    cache = ExchangeCache()

    def tcp_inputs(profile):
        config = TcpClientConfig(source_ip="192.0.2.1")
        return ExchangeInputs(
            TCP_EXCHANGE,
            4,
            "100.64.0.1",
            "route",
            config,
            tcp_profile=profile,
            response=RESPONSES[0],
            path=PATHS[path_index],
        )

    key_a = cache.key_for(tcp_inputs(profile_a))
    key_b = cache.key_for(tcp_inputs(profile_b))
    assert (key_a == key_b) == (profile_a is profile_b)
    # A QUIC exchange over the same path/config never shares a TCP key.
    assert cache.key_for(_quic_inputs(0, 0, path_index, 0)) != key_a


def test_dead_and_no_address_keys_are_distinct_constants():
    cache = ExchangeCache()
    config = QuicClientConfig()
    no_addr = ExchangeInputs(QUIC_EXCHANGE, 6, None, "route", config)
    dead = ExchangeInputs(QUIC_EXCHANGE, 4, "100.64.0.1", "route", config)
    dead_tcp = ExchangeInputs(TCP_EXCHANGE, 4, "100.64.0.1", "route", config)
    keys = {
        cache.key_for(no_addr),
        cache.key_for(dead),
        cache.key_for(dead_tcp),
        cache.key_for(_quic_inputs(0, 0, 0, 0)),
    }
    assert None not in keys
    assert len(keys) == 4


def test_paths_that_may_draw_are_uncacheable():
    cache = ExchangeCache()
    stochastic = [
        NetworkPath(hops=[_router(drop_probability=0.1)]),
        NetworkPath(hops=[_router(aqm_ce_probability=0.05)]),
        NetworkPath(hops=[_router()], base_loss=0.01),
        NetworkPath(hops=[_router() for _ in range(70)]),  # TTL could expire
    ]
    for path in stochastic:
        inputs = _quic_inputs(0, 0, 0, 0)
        inputs.path = path
        assert cache.key_for(inputs) is None
    # Deterministic rewrites / ECT blackholing stay cacheable: no draws.
    inputs = _quic_inputs(0, 0, 0, 0)
    inputs.path = NetworkPath(
        hops=[_router(ecn_action=EcnAction.CLEAR_ECN, drop_if_ect=True)]
    )
    assert cache.key_for(inputs) is not None


# ----------------------------------------------------------------------
# Replay mechanics
# ----------------------------------------------------------------------
def test_recording_clock_replays_bit_identical_trajectories():
    base = Clock()
    recorder = RecordingClock(base)
    for seconds in (0.03, 0.03, 1.0, 0.03, 10.0, 0.07):
        recorder.advance(seconds)
    outcome = ExchangeOutcome(result=object(), advances=tuple(recorder.advances))
    fresh = Clock()
    result = replay_outcome(outcome, fresh)
    assert result is outcome.result
    assert fresh.now == base.now  # same additions in the same order
    offset_clock = Clock(start=123.456)
    replay_outcome(outcome, offset_clock)
    expected = Clock(start=123.456)
    for seconds in outcome.advances:
        expected.advance(seconds)
    assert offset_clock.now == expected.now


# ----------------------------------------------------------------------
# Engine accounting
# ----------------------------------------------------------------------
def test_engine_counts_every_exchange_and_hits_on_stable_weeks():
    world = repro.build_world(WorldConfig(scale=SCALE))
    engine = world.scan_engine()
    week = world.config.reference_week
    stats = ScanPhaseStats()
    for scan_week in (week + (-1), week):
        engine.run_week(scan_week, include_tcp=True, phase_stats=stats)
    events = len(engine.site_events(week + (-1), include_tcp=True)) + len(
        engine.site_events(week, include_tcp=True)
    )
    accounted = (
        stats.exchange_cache_hits
        + stats.exchange_cache_misses
        + stats.exchange_cache_uncacheable
    )
    assert accounted == events
    assert stats.exchange_cache_uncacheable == 0
    assert stats.exchange_cache_hits > 0
    assert 0.0 < stats.exchange_cache_hit_rate < 1.0


def test_codec_round_trips_cache_stats_trailer():
    entries = [(7, 0, None, 1.25)]
    buf = encode_shard_results(entries, cache_stats=(11, 4, 2))
    decoded, stats, obs = decode_shard_payload_obs(buf)
    assert decoded == entries
    assert stats == (11, 4, 2)
    assert obs == b""  # uninstrumented: empty observability blob
    # Default trailer is all-zero (and decode_shard_results still works).
    from repro.store.codec import decode_shard_results

    assert decode_shard_results(encode_shard_results(entries)) == entries
    assert decode_shard_payload_obs(encode_shard_results(entries))[1] == (0, 0, 0)


# ----------------------------------------------------------------------
# Pre-ordered event emission (the removed per-week sort)
# ----------------------------------------------------------------------
def _reference_schedule(engine, plan, week, vantage_id, include_tcp):
    """The old sort-based scheduler, kept here as the order oracle."""
    world = engine.world
    share = world.adoption_share(week)
    rank_of = {domain.name: domain.adoption_rank for domain in world.domains}
    columns = plan.columns
    events = []
    for segment in columns.segments:
        index = segment.site_index
        policy = world.site_policy(world.sites[index], vantage_id)
        capable = policy.reachable and policy.quic_profile is not None
        if capable:
            for pos in segment.positions:
                name = columns.domains[pos]
                if rank_of[name] < share:
                    events.append(SiteEvent(pos, QUIC_EVENT, index, columns.ips[pos], name))
                    break
        if include_tcp:
            first = segment.positions[0]
            events.append(
                SiteEvent(first, TCP_EVENT, index, columns.ips[first], columns.domains[first])
            )
    events.sort(key=lambda event: (event.position, event.kind))
    return events


def test_preordered_emission_matches_sorted_reference():
    world = repro.build_world(WorldConfig(scale=SCALE))
    engine = world.scan_engine()
    plan = engine.plan_for(4, ("cno", "toplist"))
    weeks = [
        world.config.start_week,  # low share: late-rank domains excluded
        world.config.start_week + 20,
        world.config.reference_week,  # share 1.0: every rank triggers
    ]
    for week in weeks:
        for vantage_id in ("main-aachen", sorted(world.vantages)[0]):
            for include_tcp in (False, True):
                expected = _reference_schedule(
                    engine, plan, week, vantage_id, include_tcp
                )
                actual = engine.site_events(
                    week, vantage_id, include_tcp=include_tcp
                )
                assert actual == expected


def test_preordered_emission_matches_reference_after_resolver_mutation():
    """A domain the resolver moved to another site stays ordered."""
    from repro.dns.resolver import DnsRecord

    world = repro.build_world(WorldConfig(scale=SCALE))
    domain = next(d for d in world.domains if d.site_index == 0)
    world.resolver.add(domain.name, DnsRecord(a=world.sites[-1].ip))
    engine = world.scan_engine()
    plan = engine.plan_for(4, ("cno", "toplist"))
    week = world.config.reference_week
    expected = _reference_schedule(engine, plan, week, "main-aachen", True)
    actual = engine.site_events(week, include_tcp=True)
    assert actual == expected
    positions = [(event.position, event.kind) for event in actual]
    assert positions == sorted(positions)
