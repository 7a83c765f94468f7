"""Unified telemetry: metrics registry, span tracing, run reports.

``repro.obs`` is the cross-cutting observability layer for the
multi-process scan runtime (docs/observability.md):

* :mod:`repro.obs.metrics` — namespaced counters/gauges/histograms
  with plain-attribute hot paths, plus the :func:`safe_ratio`
  zero-denominator convention every derived rate follows.
* :mod:`repro.obs.spans` — hierarchical span tracing on the monotonic
  clock; worker spans ship back inside the CRC-checked shard frames
  and re-parent under the dispatching span.
* :mod:`repro.obs.export` — Chrome trace-event JSON (``--trace-out``,
  Perfetto-loadable) and the schema-versioned metrics report
  (``--metrics-out``).
* :mod:`repro.obs.progress` — the opt-in stderr heartbeat
  (``--progress``).

:class:`Telemetry` bundles one registry + one tracer; passing it to
``run_campaign``/``run_weekly_scan`` (or setting ``engine.telemetry``)
turns instrumentation on, and the registry is the only place run
counters are kept.  Library calls without one record nothing; the
``scan`` and ``campaign`` commands always pass one.
"""

from __future__ import annotations

from repro.obs.export import (
    METRICS_SCHEMA,
    METRICS_SCHEMA_VERSION,
    load_metrics,
    span_summary,
    trace_events,
    write_metrics,
    write_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    safe_ratio,
)
from repro.obs.progress import CampaignProgress
from repro.obs.spans import Span, Tracer, decode_obs_blob, encode_obs_blob

__all__ = [
    "METRICS_SCHEMA",
    "METRICS_SCHEMA_VERSION",
    "CampaignProgress",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "decode_obs_blob",
    "encode_obs_blob",
    "load_metrics",
    "safe_ratio",
    "span_summary",
    "trace_events",
    "write_metrics",
    "write_trace",
]


class Telemetry:
    """One instrumented run's registry + tracer, carried as a unit.

    The engine and campaign accept ``telemetry=None`` (no overhead) or
    a ``Telemetry``; both members always exist so call sites never
    branch on partial instrumentation.
    """

    __slots__ = ("registry", "tracer")

    def __init__(self, registry: MetricsRegistry | None = None, tracer: Tracer | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
