"""Typed metrics registry with near-zero hot-path overhead.

The runtime grew counters organically: :class:`ScanPhaseStats` on the
engine, :class:`SupervisionStats` on the shm pool, exchange
replay-cache counters shipped in shard trailers, world-cache hits
measured (but never reported) by :mod:`repro.web.snapshot`, shm-pool
memo/replay counters.  Each had its own dataclass, its own merge
method, and its own ad-hoc print site.  This module puts one namespaced
model behind all of them.

Design constraints, in order:

* **Hot-path cost is a plain attribute bump.**  ``counter.value += n``
  or ``counter.inc()`` — no locks, no dict lookups per increment, no
  string formatting.  Callers resolve a metric *once* (at setup) and
  hold the instrument object; workers are single-threaded forked
  processes, so instruments are thread-naive on purpose.
* **Zero repro dependencies.**  This module imports only the standard
  library so any subsystem (including :mod:`repro.web.snapshot`, which
  sits below the pipeline) can publish metrics without import cycles.
* **Derived ratios are total functions.**  ``safe_ratio`` defines
  every hit-rate-style metric as ``0.0`` when the denominator is zero;
  registry ``ratio()`` instruments inherit the convention, and the
  legacy dataclass properties delegate to it (tests pin this).

Names are dot-separated paths (``campaign.supervision.retries``,
``world.cache.memory_hits``).  ``to_tree()`` emits the flat
name → entry mapping that :func:`repro.obs.export.write_metrics`
wraps in the schema-versioned run report.
"""

from __future__ import annotations

import math
from typing import Callable, Union, cast

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Ratio",
    "global_registry",
    "reset_global_registry",
    "safe_ratio",
]


def safe_ratio(numerator: float, denominator: float) -> float:
    """Registry-wide convention for derived ratios: 0.0 on empty denominators.

    A hit rate over zero attempts is *defined* as 0.0 — never a
    ZeroDivisionError, never NaN.  Every ``hit_rate``-style property in
    the codebase routes through here so the convention has exactly one
    implementation (and one unit test).
    """
    if not denominator:
        return 0.0
    value = numerator / denominator
    if math.isnan(value):
        return 0.0
    return value


class Counter:
    """Monotonically increasing count.  Bump with ``inc()`` or ``value +=``."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_entry(self) -> dict[str, object]:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """Last-written value (queue depth, worker count, scale)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        # Last write wins; merging partial registries keeps the most
        # recently folded-in observation, matching per-run semantics.
        self.value = other.value

    def to_entry(self) -> dict[str, object]:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Streaming summary: count/sum/min/max (no buckets, no allocation).

    The campaign hot loop observes one value per week or per shard, so
    a four-field running summary captures what the run report needs
    (total time, extremes, mean) without per-observation allocation.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return safe_ratio(self.total, self.count)

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def to_entry(self) -> dict[str, object]:
        entry: dict[str, object] = {
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
        }
        if self.count:
            entry["min"] = self.min
            entry["max"] = self.max
        return entry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={self.count}, sum={self.total})"


class Ratio:
    """Derived metric: ``numerator / denominator`` under :func:`safe_ratio`.

    Holds *references* to two registry instruments and evaluates lazily
    at export time, so the hot path never touches it.
    """

    __slots__ = ("name", "numerator", "denominator")

    kind = "ratio"

    def __init__(self, name: str, numerator: Counter, denominator: Counter) -> None:
        self.name = name
        self.numerator = numerator
        self.denominator = denominator

    @property
    def value(self) -> float:
        return safe_ratio(self.numerator.value, self.denominator.value)

    def to_entry(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "value": self.value,
            "numerator": self.numerator.name,
            "denominator": self.denominator.name,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ratio({self.name!r}, {self.value})"


#: Everything a registry can hold; narrowing is by ``isinstance``.
Metric = Union[Counter, Gauge, Histogram, Ratio]


class MetricsRegistry:
    """Namespaced get-or-create registry of instruments.

    ``counter/gauge/histogram`` return the *same* instrument for the
    same name, so distant call sites accumulate into one cell.  The
    registry itself is only touched at setup and export time; bumps go
    straight to instrument attributes.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(
        self, name: str, factory: Callable[[str], Metric], kind: str
    ) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(name)
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, not {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return cast(Counter, self._get_or_create(name, Counter, "counter"))

    def gauge(self, name: str) -> Gauge:
        return cast(Gauge, self._get_or_create(name, Gauge, "gauge"))

    def histogram(self, name: str) -> Histogram:
        return cast(Histogram, self._get_or_create(name, Histogram, "histogram"))

    def ratio(self, name: str, numerator: str, denominator: str) -> Ratio:
        """Register a derived ratio over two counter names (created if absent)."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Ratio(name, self.counter(numerator), self.counter(denominator))
            self._metrics[name] = metric
        elif not isinstance(metric, Ratio):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, not ratio"
            )
        return metric

    def add_counter(self, name: str, amount: int) -> None:
        """One-shot convenience for cold paths (setup/teardown accounting)."""
        if amount:
            self.counter(name).value += amount

    def observe(self, name: str, value: float) -> None:
        """One-shot histogram observation for cold paths."""
        self.histogram(name).observe(value)

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """Current scalar value of a metric, or ``default`` if absent."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.total
        return metric.value

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one.

        Counters and histograms accumulate; gauges take the incoming
        value; ratios are re-derived against *this* registry's counters
        (a merged ratio over merged counters, not a meaningless average
        of two ratios).
        """
        for name, metric in other._metrics.items():
            if isinstance(metric, Ratio):
                self.ratio(name, metric.numerator.name, metric.denominator.name)
            elif isinstance(metric, Counter):
                self.counter(name).merge(metric)
            elif isinstance(metric, Gauge):
                self.gauge(name).merge(metric)
            else:
                self.histogram(name).merge(metric)

    def counter_deltas(self, baseline: dict[str, int] | None = None) -> dict[str, int]:
        """Counter values (minus an optional baseline snapshot), zeros dropped.

        Workers use this to ship only the counters a ticket actually
        moved; the baseline is a previous ``counter_deltas(None)``.
        """
        baseline = baseline or {}
        deltas: dict[str, int] = {}
        for name, metric in self._metrics.items():
            if not isinstance(metric, Counter):
                continue
            delta = metric.value - baseline.get(name, 0)
            if delta:
                deltas[name] = delta
        return deltas

    def apply_counter_deltas(self, deltas: dict[str, int]) -> None:
        for name, delta in deltas.items():
            self.counter(name).value += delta

    def to_tree(self) -> dict[str, dict[str, object]]:
        """Flat ``name -> entry`` mapping, sorted, ratios evaluated last."""
        return {name: self._metrics[name].to_entry() for name in sorted(self._metrics)}

    def reset(self) -> None:
        self._metrics.clear()


# ----------------------------------------------------------------------
# Process-global registry
# ----------------------------------------------------------------------
# Subsystems below the pipeline (world snapshot cache, codec layers)
# have no campaign handle to hang metrics on; they publish here, and
# `--metrics-out` merges this registry into the run report.
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry for subsystems without a plumbed handle."""
    return _GLOBAL


def reset_global_registry() -> None:
    """Clear the process-global registry (tests, bench isolation)."""
    _GLOBAL.reset()
