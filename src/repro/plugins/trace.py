"""The ``trace`` plugin: tracebox sampling as a finalize hook.

Tracebox probes are not per-site connection variants — they run TTL
ladders against a *sample* of abnormal sites chosen after attribution
(the paper traces hosts whose QUIC connect succeeded but whose ECN
validation failed).  The plugin therefore declares no variants or
fields and instead registers a :meth:`finalize_run` hook that invokes
the sampler + probe + classification path the reference loop's
``run_tracebox=True`` drives.

Traces land on ``run.traces`` (site index → classified summary), the
structure Tables 4/7 read — not in the columnar store, which holds
per-site rows for every scanned site rather than a sampled subset.
"""

from __future__ import annotations

from repro.plugins.base import MeasurementPlugin
from repro.plugins.registry import register


class TracePlugin(MeasurementPlugin):
    """Sample tracebox probes after attribution (Tables 4/7)."""

    name = "trace"

    def finalize_run(self, world, run, week, vantage_id, ip_version):
        from repro.pipeline.runs import _run_traces

        _run_traces(world, week, vantage_id, ip_version, run)


register(TracePlugin())
