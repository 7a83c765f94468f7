"""Deterministic fault injection for the campaign runtime.

A :class:`FaultPlan` is a seeded, declarative list of failures to
inject into a run: crash a pool worker on a specific ticket attempt,
stall a ticket past its supervision deadline, corrupt a ticket result
buffer or a checkpoint file, or abort a campaign between weeks (the
kill-and-resume tests' "crash").  The runtime calls the plan's hooks at
the few places real faults strike — the worker entry point
(:func:`repro.pipeline.sharding._pool_run_ticket`), the result
marshalling boundary, the checkpoint writer, the campaign week loop —
and a plan with no matching rule is a no-op at every one of them.

Determinism is the design constraint.  Hooks run on both sides of a
fork boundary, so rules match on *coordinates* — ``(shard, week,
attempt)``, where ``shard`` is the ticket index — never on shared
mutable counters; the same plan injects
the same faults into every execution of the same run.  Corruption is
seeded: byte positions and flip masks come from an
:class:`~repro.util.rng.RngStream` derived from the plan seed and the
target coordinates, so a corrupted buffer is reproducible bit for bit.

Rules with ``attempt=0`` (the default) fault only the first attempt of
a shard: supervision's first retry then succeeds, which is the common
"transient fault, recovered run" scenario.  ``attempt=None`` matches
every attempt — retries keep failing until supervision falls back to
inline execution in the parent, which the plan cannot reach.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.util.rng import RngStream
from repro.util.weeks import Week

#: Exit code of an injected worker crash — distinguishable from real
#: interpreter deaths in test assertions and CI logs.
CRASH_EXIT_CODE = 17


class InjectedFault(RuntimeError):
    """An error raised (not simulated) by an injected fault rule."""


@dataclass(frozen=True)
class _Rule:
    """One fault rule: what to do, and the coordinates it matches.

    ``None`` coordinates are wildcards.  ``week`` matches the week a
    shard belongs to (or a checkpoint covers); ``attempt`` matches the
    supervision attempt number (0 = first execution).
    """

    action: str  # "crash" | "delay" | "corrupt_shard" | "corrupt_checkpoint" | "abort"
    shard: int | None = None
    week: Week | None = None
    attempt: int | None = 0
    mode: str = "bitflip"  # corruption shape: "bitflip" | "truncate"
    seconds: float = 0.0  # delay duration

    def matches(self, *, shard=None, week=None, attempt=None) -> bool:
        if self.shard is not None and shard != self.shard:
            return False
        if self.week is not None and week != self.week:
            return False
        if self.attempt is not None and attempt != self.attempt:
            return False
        return True


def _corrupt(buf: bytes, mode: str, rng: RngStream) -> bytes:
    """Deterministically damage ``buf``: one bit flip, or a truncation."""
    if not buf:
        return buf
    if mode == "bitflip":
        position = rng.randrange(len(buf))
        bit = 1 << rng.randrange(8)
        out = bytearray(buf)
        out[position] ^= bit
        return bytes(out)
    if mode == "truncate":
        # Keep at least one byte missing; cutting to zero length is the
        # degenerate case the magic check already catches trivially.
        return buf[: rng.randrange(len(buf))]
    raise ValueError(f"unknown corruption mode: {mode!r}")


class FaultPlan:
    """A seeded set of fault rules, built with chainable ``*_`` methods.

    >>> plan = (
    ...     FaultPlan(seed=7)
    ...     .crash_worker(shard=1, week=Week(2021, 34))
    ...     .corrupt_shard_buffer(shard=2, mode="truncate")
    ... )

    Hook methods are called by the runtime (engine, pool worker,
    checkpointer, campaign loop); they are no-ops unless a rule matches
    the call's coordinates.  Plans are immutable once execution starts
    in the sense that the runtime never mutates them; they fork-copy
    into workers with the engine snapshot.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rules: list[_Rule] = []

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def _add(self, rule: _Rule) -> "FaultPlan":
        self.rules.append(rule)
        return self

    def crash_worker(
        self, *, shard: int | None = None, week: Week | None = None,
        attempt: int | None = 0,
    ) -> "FaultPlan":
        """Kill the worker process (``os._exit``) before it runs the shard."""
        return self._add(_Rule("crash", shard=shard, week=week, attempt=attempt))

    def delay_shard(
        self, seconds: float, *, shard: int | None = None,
        week: Week | None = None, attempt: int | None = 0,
    ) -> "FaultPlan":
        """Stall the worker before the shard — past a deadline, a timeout."""
        return self._add(
            _Rule("delay", shard=shard, week=week, attempt=attempt, seconds=seconds)
        )

    def corrupt_shard_buffer(
        self, *, mode: str = "bitflip", shard: int | None = None,
        week: Week | None = None, attempt: int | None = 0,
    ) -> "FaultPlan":
        """Damage the shard's marshalled result buffer in the worker."""
        if mode not in ("bitflip", "truncate"):
            raise ValueError(f"unknown corruption mode: {mode!r}")
        return self._add(
            _Rule("corrupt_shard", shard=shard, week=week, attempt=attempt, mode=mode)
        )

    def corrupt_checkpoint(
        self, *, week: Week | None = None, mode: str = "bitflip"
    ) -> "FaultPlan":
        """Damage a checkpoint file's bytes as they are written."""
        if mode not in ("bitflip", "truncate"):
            raise ValueError(f"unknown corruption mode: {mode!r}")
        return self._add(
            _Rule("corrupt_checkpoint", week=week, attempt=None, mode=mode)
        )

    def abort_campaign_after(self, week: Week) -> "FaultPlan":
        """Raise :class:`InjectedFault` after ``week`` completes — the
        simulated crash of the kill-and-resume tests."""
        return self._add(_Rule("abort", week=week, attempt=None))

    # ------------------------------------------------------------------
    # Runtime hooks
    # ------------------------------------------------------------------
    def before_shard(self, *, shard: int, week: Week, attempt: int) -> None:
        """Worker-side hook, called before a shard attempt executes."""
        for rule in self.rules:
            if rule.action == "crash" and rule.matches(
                shard=shard, week=week, attempt=attempt
            ):
                # A hard kill, not an exception: nothing is marshalled,
                # no finally blocks run — the task is simply lost, like
                # an OOM-killed or segfaulted worker.
                os._exit(CRASH_EXIT_CODE)
            if rule.action == "delay" and rule.matches(
                shard=shard, week=week, attempt=attempt
            ):
                time.sleep(rule.seconds)

    def mangle_shard_buffer(
        self, buf: bytes, *, shard: int, week: Week, attempt: int
    ) -> bytes:
        """Worker-side hook over the marshalled shard result buffer."""
        for rule in self.rules:
            if rule.action == "corrupt_shard" and rule.matches(
                shard=shard, week=week, attempt=attempt
            ):
                rng = RngStream(
                    self.seed, f"fault/shard/{week}/{shard}/{attempt}/{rule.mode}"
                )
                buf = _corrupt(buf, rule.mode, rng)
        return buf

    def mangle_checkpoint_bytes(self, buf: bytes, week: Week) -> bytes:
        """Writer-side hook over a checkpoint file's encoded bytes."""
        for rule in self.rules:
            if rule.action == "corrupt_checkpoint" and rule.matches(week=week):
                rng = RngStream(self.seed, f"fault/checkpoint/{week}/{rule.mode}")
                buf = _corrupt(buf, rule.mode, rng)
        return buf

    def after_week(self, week: Week) -> None:
        """Campaign-loop hook, called after a week's run is recorded."""
        for rule in self.rules:
            if rule.action == "abort" and rule.week == week:
                raise InjectedFault(f"injected campaign abort after {week}")
