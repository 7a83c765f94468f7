"""Exchange-outcome replay cache.

A longitudinal campaign re-runs the same exchanges over and over: the
paper's weekly scans mostly re-measure stable targets, and in the
simulation a site's exchange inputs (behaviour epoch, client config,
route epoch, canned response) repeat week after week.  When the path
additionally makes zero RNG draws (``NetworkPath.draw_free`` — true
for every route the calibrated world builds), the exchange is a pure
function of its :class:`~repro.exchange.core.ExchangeInputs`, so the
second occurrence of a key can skip packet encode/clone and the whole
connection state machine: a dict lookup returns the result object plus
the exact virtual-clock advance sequence to replay.

Key derivation tokenises the capsule members through interning tables
(:class:`_TokenTable`): equality is by *value* — two weeks in the same
behaviour epoch resolve different :class:`StackBehavior` objects that
compare equal and therefore share a token — with an id fast path so
the per-event cost after warm-up is a few dict hits.  Interned objects
are pinned (strong references), so an id can never be recycled into a
stale token.

What the key contains, per kind (the property-tested invariant is that
no two capsules differing in an outcome-relevant member share a key):

* no-address / dead-target sentinels (family-tagged) — these outcomes
  are constants;
* live: (kind, client-config token, behaviour-or-TCP-profile token,
  path-member token, response token).

What it deliberately omits: the authority (request bytes never reach
any observable), the week itself (only its bucketed projections
matter), the ticket layout and the RNG substream (a draw-free exchange
never consults it).  An exchange whose path *can* draw is reported
``uncacheable`` and always runs fresh, preserving the RNG stream
position draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exchange.core import ExchangeInputs, QUIC_EXCHANGE, SCAN_TTL
from repro.obs.metrics import safe_ratio

#: Key sentinels for the constant-outcome cases.
_NO_ADDRESS = "no-address"
_DEAD = "dead"


@dataclass(slots=True)
class ExchangeOutcome:
    """What replay needs: the result object + the advance trajectory."""

    result: object
    advances: tuple[float, ...]


@dataclass(slots=True)
class CacheStats:
    """Hit/miss accounting (``uncacheable`` = ran fresh by necessity)."""

    hits: int = 0
    misses: int = 0
    uncacheable: int = 0

    def snapshot(self) -> tuple[int, int, int]:
        return (self.hits, self.misses, self.uncacheable)

    def add(self, hits: int, misses: int, uncacheable: int) -> None:
        self.hits += hits
        self.misses += misses
        self.uncacheable += uncacheable

    @property
    def hit_rate(self) -> float:
        # Registry convention: derived ratios are 0.0 on an empty
        # denominator (repro.obs.metrics.safe_ratio).
        return safe_ratio(self.hits, self.hits + self.misses)


class _TokenTable:
    """Interns values to small ints: equal values → one token.

    ``token`` hashes the value at most once per distinct *object*; the
    id fast path covers repeat lookups of registry-/lru-cached objects.
    Every object that ever received an id entry is pinned so CPython
    cannot recycle its id for a different value.
    """

    __slots__ = ("_by_id", "_by_value", "_pinned")

    def __init__(self) -> None:
        self._by_id: dict[int, int] = {}
        self._by_value: dict[object, int] = {}
        self._pinned: list[object] = []

    def token(self, value: object) -> int:
        token = self._by_id.get(id(value))
        if token is None:
            token = self._by_value.get(value)
            if token is None:
                token = len(self._by_value)
                self._by_value[value] = token
            self._by_id[id(value)] = token
            self._pinned.append(value)
        return token


class _IdentityTable:
    """Interns unhashable-by-value objects (paths) by identity, pinned."""

    __slots__ = ("_by_id", "_pinned")

    def __init__(self) -> None:
        self._by_id: dict[int, int] = {}
        self._pinned: list[object] = []

    def token(self, value: object) -> int:
        token = self._by_id.get(id(value))
        if token is None:
            token = len(self._by_id)
            self._by_id[id(value)] = token
            self._pinned.append(value)
        return token


class ExchangeCache:
    """Replay cache for site exchanges (one per scan engine).

    ``path_memo`` additionally memoises the per-site ECMP selection for
    key derivation (the flow hash is a SHA-256; the 5-tuple is
    week-invariant, so it only needs recomputing on route-epoch
    changes).  Shm-pool workers build their own cache and accumulate
    independently; their stats travel back in the result codec
    buffers.
    """

    __slots__ = ("stats", "path_memo", "_outcomes", "_values", "_paths")

    def __init__(self) -> None:
        self.stats = CacheStats()
        self.path_memo: dict = {}
        self._outcomes: dict[tuple, ExchangeOutcome] = {}
        self._values = _TokenTable()
        self._paths = _IdentityTable()

    def __len__(self) -> int:
        return len(self._outcomes)

    # ------------------------------------------------------------------
    def key_for(self, inputs: ExchangeInputs) -> tuple | None:
        """The replay key of an exchange, or ``None`` if not replayable.

        ``None`` means the exchange may consult the RNG stream (or
        could expire its TTL and touch clock-dependent ICMP state), so
        it must run fresh every time.
        """
        kind = inputs.kind
        if inputs.target_ip is None:
            return (kind, _NO_ADDRESS, inputs.ip_version)
        server = inputs.behavior if kind == QUIC_EXCHANGE else inputs.tcp_profile
        if server is None:
            return (kind, _DEAD, inputs.ip_version)
        path = inputs.path
        if path is None or not path.draw_free or path.length >= SCAN_TTL:
            return None
        return (
            kind,
            self._values.token(inputs.client_config),
            self._values.token(server),
            self._paths.token(path),
            self._values.token(inputs.response),
        )

    # ------------------------------------------------------------------
    def fetch(self, key: tuple) -> ExchangeOutcome | None:
        """Look up a key, accounting the hit or miss."""
        outcome = self._outcomes.get(key)
        if outcome is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return outcome

    def store(self, key: tuple, outcome: ExchangeOutcome) -> None:
        self._outcomes[key] = outcome


def replay_outcome(outcome: ExchangeOutcome, clock) -> object:
    """Re-apply a cached exchange: same advances, same result object."""
    advance = clock.advance
    for seconds in outcome.advances:
        advance(seconds)
    return outcome.result
