"""World snapshot codec + fingerprint-keyed build cache.

Building a calibrated world re-derives everything from the provider
generators: one sha256 ``stable_hash`` per domain for the adoption rank
and toplist membership, a formatted name per domain, per-provider
prefix/AS bookkeeping.  Real campaigns amortise that target-list
preparation across weekly runs (the paper reuses one resolved target
set for its weekly QUIC/TCP scans), so this module lets a process do
the same: serialise a built :class:`~repro.web.world.World` to **one
compact buffer** and rehydrate it without re-running the generators.

The format extends the :mod:`repro.store.codec` marshalling style —
magic/version prefix, varints, a deduplicating string table for the
small repeated-string sections — and adds **typed columns** for the
bulk tables.  The domain section is the world's
:class:`~repro.web.world.DomainTable` dumped as it is (names as one
newline-joined blob, site indices as int32, flag and list-mask bytes,
adoption ranks as raw doubles), so decoding domains is a handful of
C-speed column copies and no per-domain object.  Buffers are
little-endian regardless of host (columns are byte-swapped on
big-endian machines); like the shard codec this is an internal cache
format, not an archive format.

What the snapshot captures is the world's *constructed tables*: config,
sites, domains, the prefix trie and AS/org entries.  Routes, DNS
records and site attribution are **lazy
sections** — pure functions of those tables, materialised on first
touch — so a rehydrated world lands in exactly the state a fresh
:func:`~repro.web.world.build_world` produces, which is what the
differential harness's ``rehydrated`` legs (``tests/differential.py``)
pin: byte-identical campaign + analysis output across vantages and
families, serial and on pool workers forked from a rehydrated world.
Pool workers inherit the parent's world by fork and never decode one.
Post-build mutations (extra resolver
records, manual route registrations, registry swaps) are *not*
captured; snapshot the world before mutating it.

:func:`acquire_world` is the build cache: worlds are keyed by a
fingerprint over (config, provider/vantage/override specs) and persisted
as encoded snapshots under a cache directory (the CLI's
``--world-cache``).  A warm acquisition decodes a *fresh* world from the
file — independent instances, so one caller's mutations never leak into
the next.
"""

from __future__ import annotations

import hashlib
import os
import sys
from array import array
from ast import literal_eval
from pathlib import Path
from time import perf_counter

from repro.obs.metrics import global_registry
from repro.quic.varint import decode_varint, encode_varint
from repro.util.atomic import atomic_write_bytes
from repro.util.framing import CodecCorruption, frame_payload, unframe_payload
from repro.util.gcpause import gc_paused
from repro.util.magics import WORLD_SNAPSHOT_MAGIC
from repro.util.weeks import Week
from repro.web.spec import (
    ProviderSpec,
    VantageOverrideSpec,
    VantageSpec,
    WorldConfig,
)
from repro.web.world import (
    DomainTable,
    Site,
    World,
    build_world,
)

#: Buffer prefix: codec name + format version (central registry:
#: :mod:`repro.util.magics`).  Version 2 wraps the buffer in the
#: shared checksummed frame (:mod:`repro.util.framing`), so a
#: truncated or bit-flipped snapshot raises :class:`SnapshotCorruption`
#: instead of decoding garbage tables; version 3 drops the per-site
#: domain counts (the domain table gives them).
MAGIC = WORLD_SNAPSHOT_MAGIC

_BIG_ENDIAN = sys.byteorder == "big"


class SnapshotError(ValueError):
    """A buffer that is not (or no longer) a valid world snapshot."""


class SnapshotMismatch(SnapshotError):
    """The snapshot was taken for different specs than those supplied."""


class SnapshotCorruption(SnapshotError, CodecCorruption):
    """A snapshot frame whose magic, length or checksum does not verify.

    Subclasses both :class:`SnapshotError` (callers that treat any bad
    snapshot uniformly) and :class:`repro.util.framing.CodecCorruption`
    (callers that treat all torn/corrupted codec artifacts uniformly —
    the fault-injection tests assert on that base).
    """


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def world_fingerprint(
    config: WorldConfig,
    providers: list[ProviderSpec],
    vantages: list[VantageSpec],
    overrides: list[VantageOverrideSpec],
) -> str:
    """Stable key of everything a built world derives from.

    A sha256 over the canonical repr of the config and the spec lists
    (all frozen dataclasses with value-based reprs), salted with the
    codec version so a format change never revives stale cache files.
    """
    canon = repr((MAGIC, config, tuple(providers), tuple(vantages), tuple(overrides)))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:32]


# ----------------------------------------------------------------------
# Encode
# ----------------------------------------------------------------------
def _encode_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return encode_varint(len(raw)) + raw


def _decode_str(buf: bytes, offset: int) -> tuple[str, int]:
    length, offset = decode_varint(buf, offset)
    # bytes() so memoryview input (zero-copy decode) works; a slice of
    # bytes is already a fresh object, so this adds no copy.
    return bytes(buf[offset : offset + length]).decode("utf-8"), offset + length


def _encode_week(week: Week) -> bytes:
    return encode_varint(week.year) + encode_varint(week.week)


def _decode_week(buf: bytes, offset: int) -> tuple[Week, int]:
    year, offset = decode_varint(buf, offset)
    week, offset = decode_varint(buf, offset)
    return Week(year, week), offset


def _column(values: array) -> bytes:
    if _BIG_ENDIAN:  # pragma: no cover - little-endian on all CI hosts
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


def _decode_column(typecode: str, buf: bytes, offset: int, count: int) -> tuple[array, int]:
    values = array(typecode)
    end = offset + count * values.itemsize
    values.frombytes(buf[offset:end])
    if _BIG_ENDIAN:  # pragma: no cover - little-endian on all CI hosts
        values.byteswap()
    return values, end


def encode_world(world: World) -> bytes:
    """Serialise a built world's constructed tables to one buffer."""
    # Import-cycle guard: store.codec pulls the QUIC/TCP result stack,
    # which imports repro.web right back.
    from repro.store.codec import StringTable, encode_string_table

    config = world.config
    out = bytearray()
    out += _encode_str(
        world_fingerprint(
            config, world.provider_list, world.vantage_list, world.override_list
        )
    )

    # Config (scale/seed as repr-exact strings: round-trip any float
    # scale and any int seed, sign included).
    out += _encode_str(repr(config.scale))
    out += _encode_str(repr(config.seed))
    for week in (
        config.start_week,
        config.end_week,
        config.reference_week,
        config.ipv6_week,
        config.tcp_week,
    ):
        out += _encode_week(week)

    # Provider/group reference table (order = world.provider_list).
    out += encode_varint(len(world.provider_list))
    for provider in world.provider_list:
        out += _encode_str(provider.name)
        out += encode_varint(len(provider.groups))
        for group in provider.groups:
            out += _encode_str(group.key)

    # AS/org + prefix sections (string-table backed).
    table = StringTable()
    asorg_entries = world.asorg.entries()
    merges = world.asorg.merges()
    prefixes = sorted(world.prefixes.items())
    body = bytearray()
    body += encode_varint(len(asorg_entries))
    for asn, org in asorg_entries:
        body += encode_varint(asn)
        body += encode_varint(table.ref(org))
    body += encode_varint(len(merges))
    for alias, canonical in merges:
        body += encode_varint(table.ref(alias))
        body += encode_varint(table.ref(canonical))
    body += encode_varint(len(prefixes))
    for prefix, asn in prefixes:
        body += encode_varint(table.ref(prefix))
        body += encode_varint(asn)

    # Sites: columnar like the domains (address blobs + int32 columns).
    provider_index = {p.name: i for i, p in enumerate(world.provider_list)}
    group_index = {
        (p.name, g.key): j
        for p in world.provider_list
        for j, g in enumerate(p.groups)
    }
    sites = world.sites
    body += encode_varint(len(sites))
    body += _encode_str("\n".join(site.ip for site in sites))
    body += _encode_str("\n".join(site.ipv6 or "" for site in sites))
    body += _column(array("i", [provider_index[s.provider.name] for s in sites]))
    body += _column(
        array("i", [group_index[(s.provider.name, s.group.key)] for s in sites])
    )
    body += _column(array("i", [s.position_in_group for s in sites]))
    body += _column(array("i", [s.group_site_count for s in sites]))

    # Domains: the world's DomainTable columns as they are.
    domains = world.domains
    body += encode_varint(len(domains))
    body += _encode_str("\n".join(domains.names))
    body += _column(domains.site_indexes)
    body += domains.flags
    body += domains.masks
    body += _column(domains.ranks)

    out += encode_string_table(table)
    out += body
    return frame_payload(MAGIC, bytes(out))


# ----------------------------------------------------------------------
# Decode
# ----------------------------------------------------------------------
def snapshot_fingerprint(buf: bytes) -> str:
    """The fingerprint a snapshot buffer was taken for."""
    body = unframe_payload(
        MAGIC, buf, what="world snapshot", error=SnapshotCorruption
    )
    fingerprint, _ = _decode_str(body, 0)
    return fingerprint


def decode_world(
    buf: bytes,
    *,
    providers: list[ProviderSpec] | None = None,
    vantages: list[VantageSpec] | None = None,
    overrides: list[VantageOverrideSpec] | None = None,
) -> World:
    """Rehydrate a world from :func:`encode_world` output.

    ``buf`` may be any bytes-like object, a ``memoryview`` included.
    The frame is unwrapped zero-copy and every column decode reads
    straight out of ``buf``, so a ``--world-cache`` read holds the
    buffer once; the buffer is never written to (property-tested in
    ``tests/test_world_snapshot.py``).

    The spec lists must be the ones the snapshot was taken for (they
    default to the calibrated defaults, like :func:`build_world`); the
    embedded fingerprint is re-derived and verified, so a snapshot can
    never silently rehydrate against drifted specs.

    Collection is paused for the duration: the decode allocates one
    container per site and frees essentially nothing, so cyclic GC
    passes over the growing heap are pure overhead.
    """
    with gc_paused():
        return _decode_world(buf, providers, vantages, overrides)


def _decode_world(
    buf: bytes,
    providers: list[ProviderSpec] | None,
    vantages: list[VantageSpec] | None,
    overrides: list[VantageOverrideSpec] | None,
) -> World:
    from repro.store.codec import decode_string_table
    from repro.web.providers import (
        default_providers,
        default_vantage_overrides,
        default_vantages,
    )

    providers = providers if providers is not None else default_providers()
    vantages = vantages if vantages is not None else default_vantages()
    overrides = overrides if overrides is not None else default_vantage_overrides()

    buf = unframe_payload(
        MAGIC, buf, what="world snapshot", error=SnapshotCorruption, copy=False
    )
    offset = 0
    fingerprint, offset = _decode_str(buf, offset)

    scale_repr, offset = _decode_str(buf, offset)
    seed_repr, offset = _decode_str(buf, offset)
    # literal_eval preserves the numeric type: a world built with an
    # int scale must fingerprint identically after rehydration.
    scale = literal_eval(scale_repr)
    seed = int(seed_repr)
    weeks = []
    for _ in range(5):
        week, offset = _decode_week(buf, offset)
        weeks.append(week)
    config = WorldConfig(
        scale=scale,
        seed=seed,
        start_week=weeks[0],
        end_week=weeks[1],
        reference_week=weeks[2],
        ipv6_week=weeks[3],
        tcp_week=weeks[4],
    )
    if world_fingerprint(config, providers, vantages, overrides) != fingerprint:
        raise SnapshotMismatch(
            "snapshot was taken for different world specs (fingerprint mismatch)"
        )

    # Provider/group reference table — verified against the live specs.
    provider_count, offset = decode_varint(buf, offset)
    if provider_count != len(providers):
        raise SnapshotMismatch("provider table does not match supplied specs")
    for provider in providers:
        name, offset = _decode_str(buf, offset)
        group_count, offset = decode_varint(buf, offset)
        if name != provider.name or group_count != len(provider.groups):
            raise SnapshotMismatch("provider table does not match supplied specs")
        for group in provider.groups:
            key, offset = _decode_str(buf, offset)
            if key != group.key:
                raise SnapshotMismatch("group table does not match supplied specs")

    strings, offset = decode_string_table(buf, offset)

    world = World(config, providers, vantages, overrides)

    entry_count, offset = decode_varint(buf, offset)
    for _ in range(entry_count):
        asn, offset = decode_varint(buf, offset)
        ref, offset = decode_varint(buf, offset)
        world.asorg.add(asn, strings[ref])
    merge_count, offset = decode_varint(buf, offset)
    for _ in range(merge_count):
        alias, offset = decode_varint(buf, offset)
        canonical, offset = decode_varint(buf, offset)
        world.asorg.merge(strings[alias], strings[canonical])
    prefix_count, offset = decode_varint(buf, offset)
    for _ in range(prefix_count):
        ref, offset = decode_varint(buf, offset)
        asn, offset = decode_varint(buf, offset)
        world.prefixes.insert(strings[ref], asn)

    # Sites.
    site_count, offset = decode_varint(buf, offset)
    ips_blob, offset = _decode_str(buf, offset)
    v6_blob, offset = _decode_str(buf, offset)
    # Guard the splits on the row count, not blob truthiness: a single
    # all-empty row joins to "" which must split to [""], not [].
    ips = ips_blob.split("\n") if site_count else []
    v6s = v6_blob.split("\n") if site_count else []
    if len(ips) != site_count or len(v6s) != site_count:
        raise SnapshotError("site address columns out of step")
    pidx_col, offset = _decode_column("i", buf, offset, site_count)
    gidx_col, offset = _decode_column("i", buf, offset, site_count)
    position_col, offset = _decode_column("i", buf, offset, site_count)
    group_sites_col, offset = _decode_column("i", buf, offset, site_count)
    route_keys = [
        f"{p.name}/{g.key}" for p in providers for g in p.groups
    ]
    group_flat_base = []
    flat = 0
    for provider in providers:
        group_flat_base.append(flat)
        flat += len(provider.groups)
    groups_flat = [g for p in providers for g in p.groups]
    sites = world.sites
    by_ip = world._sites_by_ip
    for index in range(site_count):
        pidx = pidx_col[index]
        flat = group_flat_base[pidx] + gidx_col[index]
        ipv6 = v6s[index] or None
        site = Site(
            index=index,
            provider=providers[pidx],
            group=groups_flat[flat],
            ip=ips[index],
            ipv6=ipv6,
            route_key=route_keys[flat],
            position_in_group=position_col[index],
            group_site_count=group_sites_col[index],
        )
        sites.append(site)
        by_ip[site.ip] = site
        if ipv6:
            by_ip[ipv6] = site

    # Domains: the DomainTable columns, copied out of the buffer.
    domain_count, offset = decode_varint(buf, offset)
    names_blob, offset = _decode_str(buf, offset)
    names = names_blob.split("\n") if domain_count else []
    if len(names) != domain_count:
        raise SnapshotError("domain name column out of step")
    site_indexes, offset = _decode_column("i", buf, offset, domain_count)
    flags = bytearray(buf[offset : offset + domain_count])
    offset += domain_count
    masks = bytearray(buf[offset : offset + domain_count])
    offset += domain_count
    ranks, offset = _decode_column("d", buf, offset, domain_count)
    world.domains = DomainTable(names, site_indexes, flags, masks, ranks)
    # Routes, DNS and attribution stay lazy — the
    # rehydrated world is in exactly the state build_world leaves.
    world._attribution_stale = True
    return world


# ----------------------------------------------------------------------
# Build cache (disk layer)
# ----------------------------------------------------------------------
def cache_path(cache_dir: str | os.PathLike, fingerprint: str) -> Path:
    """Where a snapshot with this fingerprint lives under ``cache_dir``."""
    return Path(cache_dir) / f"world-{fingerprint}.ecnw"


def acquire_world(
    config: WorldConfig | None = None,
    *,
    providers: list[ProviderSpec] | None = None,
    vantages: list[VantageSpec] | None = None,
    overrides: list[VantageOverrideSpec] | None = None,
    cache_dir: str | os.PathLike,
) -> tuple[World, str]:
    """Get a built world through the snapshot cache under ``cache_dir``.

    Returns ``(world, source)`` with ``source`` one of ``"cold"`` (built
    fresh, snapshot persisted) or ``"disk"`` (decoded from
    ``cache_dir``).  Every warm acquisition decodes an independent
    world; mutating it cannot poison the cache.  Unreadable or
    mismatched cache files are rebuilt in place.
    """
    config = config or WorldConfig()
    from repro.web.providers import (
        default_providers,
        default_vantage_overrides,
        default_vantages,
    )

    providers = providers if providers is not None else default_providers()
    vantages = vantages if vantages is not None else default_vantages()
    overrides = overrides if overrides is not None else default_vantage_overrides()
    fingerprint = world_fingerprint(config, providers, vantages, overrides)

    # PR 5 measured cache behaviour only inside the bench harness; the
    # process-global registry makes it reportable from any run
    # (--metrics-out merges these under world.* — docs/observability.md).
    registry = global_registry()

    path = cache_path(cache_dir, fingerprint)
    if path.exists():
        try:
            started = perf_counter()
            world = decode_world(
                path.read_bytes(), providers=providers, vantages=vantages, overrides=overrides
            )
        except (ValueError, KeyError, IndexError, UnicodeDecodeError, OSError):
            # SnapshotError subclasses ValueError; truncated varints and
            # short columns surface as bare ValueError/IndexError.
            pass  # corrupt or stale: fall through and rebuild
        else:
            registry.observe("world.snapshot.decode_seconds", perf_counter() - started)
            registry.add_counter("world.cache.disk_hits", 1)
            return world, "disk"

    started = perf_counter()
    world = build_world(
        config, providers=providers, vantages=vantages, overrides=overrides
    )
    registry.observe("world.snapshot.build_seconds", perf_counter() - started)
    started = perf_counter()
    buf = encode_world(world)
    registry.observe("world.snapshot.encode_seconds", perf_counter() - started)
    registry.gauge("world.snapshot.bytes").set(len(buf))
    registry.add_counter("world.cache.cold_builds", 1)
    atomic_write_bytes(path, buf)
    return world, "cold"


__all__ = [
    "MAGIC",
    "SnapshotCorruption",
    "SnapshotError",
    "SnapshotMismatch",
    "acquire_world",
    "cache_path",
    "decode_world",
    "encode_world",
    "snapshot_fingerprint",
    "world_fingerprint",
]
