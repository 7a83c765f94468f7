"""Deterministic named random streams.

Every piece of randomness in the simulator flows from a named stream so
that (a) two runs with the same master seed are bit-identical and (b)
adding randomness to one subsystem does not perturb another (streams are
independent by name, not by draw order).
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Iterator, Sequence


def _seed_for(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a master seed and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream(random.Random):
    """A `random.Random` bound to a (master_seed, name) pair.

    The name is kept for debugging and for deriving further sub-streams.
    """

    def __init__(self, master_seed: int, name: str) -> None:
        self.master_seed = master_seed
        self.name = name
        super().__init__(_seed_for(master_seed, name))

    def child(self, suffix: str) -> "RngStream":
        """Derive an independent sub-stream, e.g. per-host or per-week."""
        return RngStream(self.master_seed, f"{self.name}/{suffix}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.master_seed}, name={self.name!r})"


def derive_rng(master_seed: int, name: str) -> RngStream:
    """Convenience constructor for a named stream."""
    return RngStream(master_seed, name)


def stable_hash(*parts: object) -> int:
    """A process-independent 64-bit hash of the given parts.

    Python's builtin ``hash`` is salted per process; ECMP flow hashing and
    sampling decisions must instead be reproducible across runs.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stable_hashes(prefix: Sequence[object], names: Iterable[str]) -> Iterator[int]:
    """``stable_hash(*prefix, name)`` for every name, in order, lazily.

    The bulk form for hashing many names under one prefix: the prefix
    is joined once, then each name costs one sha256 of the same UTF-8
    text :func:`stable_hash` would hash.
    """
    head = "".join(f"{part}\x1f" for part in prefix)
    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    for name in names:
        yield from_bytes(sha256((head + name).encode("utf-8")).digest()[:8], "big")
