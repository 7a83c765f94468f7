"""Campaign checkpoints: per-week results persisted for crash resume.

A checkpoint is one file per completed week holding exactly what the
site phase produced — the ordered ``(site_index, kind, result,
elapsed)`` entries — marshalled with the shard result codec
(:mod:`repro.store.codec`) and wrapped in the shared checksummed frame
(:mod:`repro.util.framing`).  Rehydrating a week replays those entries
through the engine's central merge
(:meth:`~repro.pipeline.engine.ScanEngine._apply_replay`): records fill
in serial event order and the clock advances by the same float sums, so
a resumed campaign is byte-identical to an uninterrupted one
(golden-tested in ``tests/test_checkpoint.py`` against the serial
oracle of ``tests/differential.py``).

Files are keyed by :func:`campaign_checkpoint_key` — a digest over the
world fingerprint and every campaign parameter the entries depend on
(vantage, populations, family, TCP inclusion) plus the codec format
versions.  Worker count, ticket tiling and executor are deliberately
*excluded*: per-site RNG substreams make results partition-independent,
so a campaign may resume under a different worker count than it started
with — including files the removed fork-pool executor wrote.
Any mismatch — different world, drifted specs, bumped codec — simply
misses, and the week recomputes.  Corrupt files (torn writes, bit rot)
fail the frame checksum and are likewise treated as absent, never
trusted: a checkpoint can only ever save work, not change results.

Writes are atomic (:func:`repro.util.atomic.atomic_write_bytes`), so a
crash mid-checkpoint leaves the previous file (or none), not a torn one.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Sequence

from repro.quic.varint import decode_varint, encode_varint
from repro.store import codec
from repro.util.atomic import atomic_write_bytes
from repro.util.framing import CodecCorruption, frame_payload, unframe_payload
from repro.util.magics import CHECKPOINT_MAGIC
from repro.util.weeks import Week
from repro.web.snapshot import world_fingerprint

#: One checkpointed week's entries, as the site phase produced them.
Entries = Sequence[tuple[int, int, object, float]]


def campaign_checkpoint_key(
    world,
    *,
    vantage_id: str,
    populations: Sequence[str],
    ip_version: int = 4,
    include_tcp: bool = False,
    plugins: Sequence[str] = ("ecn",),
) -> str:
    """Digest of everything a checkpointed week's entries depend on.

    Salted with the checkpoint and shard-codec format versions, so a
    format bump invalidates stale files automatically (the same trick
    the world snapshot cache uses).  The plugin selection joins the
    canon only when it differs from the default core scan, so keys
    minted before the plugin framework stay valid.
    """
    fingerprint = world_fingerprint(
        world.config, world.provider_list, world.vantage_list, world.override_list
    )
    parts = (
        CHECKPOINT_MAGIC,
        codec.MAGIC,
        fingerprint,
        vantage_id,
        tuple(populations),
        ip_version,
        bool(include_tcp),
    )
    if tuple(plugins) != ("ecn",):
        parts = parts + (tuple(plugins),)
    canon = repr(parts)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:32]


def encode_checkpoint(key: str, week: Week, entries: Entries) -> bytes:
    """Marshal one completed week: key, week, embedded shard codec buffer."""
    key_raw = key.encode("ascii")
    body = bytearray()
    body += encode_varint(len(key_raw))
    body += key_raw
    body += encode_varint(week.year)
    body += encode_varint(week.week)
    body += codec.encode_shard_results(entries)
    return frame_payload(CHECKPOINT_MAGIC, bytes(body))


def decode_checkpoint(buf: bytes) -> tuple[str, Week, list]:
    """Inverse of :func:`encode_checkpoint`: ``(key, week, entries)``.

    Raises :class:`~repro.util.framing.CodecCorruption` on any damaged
    frame — outer checkpoint or embedded entry buffer — before a single
    entry is constructed.
    """
    body = unframe_payload(CHECKPOINT_MAGIC, buf, what="campaign checkpoint")
    key_len, offset = decode_varint(body, 0)
    key = body[offset : offset + key_len].decode("ascii")
    offset += key_len
    year, offset = decode_varint(body, offset)
    week_no, offset = decode_varint(body, offset)
    entries = codec.decode_shard_results(body[offset:])
    return key, Week(year, week_no), entries


class CampaignCheckpointer:
    """Per-week checkpoint files under one directory, for one key.

    Layout: ``<directory>/<key[:16]>/week-<year>-W<ww>.ecnc`` — one
    subdirectory per campaign identity, so unrelated campaigns can
    share a checkpoint directory without colliding, and an invalidated
    key's files are simply never read again.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        key: str,
        *,
        fault_plan=None,
        registry=None,
    ):
        self.directory = Path(directory)
        self.key = key
        #: Test-only corruption hook (:class:`repro.faults.FaultPlan`).
        self.fault_plan = fault_plan
        #: Optional :class:`repro.obs.MetricsRegistry`; when set, store
        #: and load outcomes count under ``campaign.checkpoint.*``.
        self.registry = registry

    def _count(self, name: str) -> None:
        if self.registry is not None:
            self.registry.add_counter(name, 1)

    def path_for(self, week: Week) -> Path:
        return self.directory / self.key[:16] / f"week-{week.year}-W{week.week:02d}.ecnc"

    def store(self, week: Week, entries: Entries) -> Path:
        """Atomically persist a completed week's entries."""
        buf = encode_checkpoint(self.key, week, entries)
        if self.fault_plan is not None:
            buf = self.fault_plan.mangle_checkpoint_bytes(buf, week)
        self._count("campaign.checkpoint.weeks_stored")
        return atomic_write_bytes(self.path_for(week), buf)

    def load(self, week: Week) -> list | None:
        """A completed week's entries, or ``None`` when unusable.

        Missing files, corrupt frames (any truncation or bit flip — the
        checksums guarantee detection), key mismatches and week
        mismatches all return ``None``: the caller recomputes the week.
        A checkpoint is an optimisation, never an authority.
        """
        path = self.path_for(week)
        try:
            buf = path.read_bytes()
        except OSError:
            self._count("campaign.checkpoint.misses")
            return None
        try:
            key, stored_week, entries = decode_checkpoint(buf)
        except CodecCorruption:
            self._count("campaign.checkpoint.corrupt")
            return None
        except ValueError:
            # Damage inside the verified frame cannot happen (the CRC
            # covers the whole body), but a foreign-yet-well-framed file
            # decodes to garbage varints; treat it the same way.
            self._count("campaign.checkpoint.corrupt")
            return None
        if key != self.key or stored_week != week:
            self._count("campaign.checkpoint.misses")
            return None
        self._count("campaign.checkpoint.weeks_resumed")
        return entries


__all__ = [
    "CHECKPOINT_MAGIC",
    "CampaignCheckpointer",
    "campaign_checkpoint_key",
    "decode_checkpoint",
    "encode_checkpoint",
]
