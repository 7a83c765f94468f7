"""Layer wrappers and span arithmetic for the end-to-end benchmark.

The traced run measures every layer from outside the program: ``install``
wraps the public entry points listed in :data:`WRAPPERS` in bench-side
:class:`repro.obs.Tracer` spans, so nothing under ``src/`` changes.  A
layer's self time is its spans' duration minus the part covered by their
child spans (:func:`self_times`); whatever no layer claims is
``unattributed_s``, which the runner gates at 5 % of the traced wall.

The exchange entry points run thousands of times per campaign, so they
are :data:`LEAVES`: timed with two clock reads into a :class:`Leaves`
ledger instead of a span each, and subtracted from the span they ran in.

This module imports nothing from ``repro`` at import time: the runner
loads it to aggregate results without paying for the program's import.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
from time import perf_counter

#: (layer, module, attribute path) of every wrapped entry point.  The
#: module is where callers *look the name up*: ``repro.cli`` calls
#: ``repro.build_world`` through the package, and ``pipeline.engine``
#: binds ``plan_columns`` and the scan functions at import.  A layer may
#: own several entry points.
WRAPPERS: tuple[tuple[str, str, str], ...] = (
    ("web.build_s", "repro", "build_world"),
    ("web.snapshot_s", "repro.web.snapshot", "acquire_world"),
    ("web.sections_s", "repro.web.world", "World.ensure_site_attribution"),
    ("web.sections_s", "repro.web.world", "World.ensure_routes"),
    ("pipeline.campaign_s", "repro", "run_campaign"),
    ("pipeline.scan_s", "repro", "run_weekly_scan"),
    ("pipeline.plan_s", "repro.pipeline.engine", "ScanEngine.plan_for"),
    ("store.columns_s", "repro.store.columns", "plan_columns"),
    ("store.columns_s", "repro.pipeline.engine", "plan_columns"),
    ("pipeline.week_s", "repro.pipeline.engine", "ScanEngine.run_week"),
    ("exchange.fresh_s", "repro.pipeline.engine", "scan_site_quic"),
    ("exchange.fresh_s", "repro.pipeline.engine", "scan_site_tcp"),
    ("exchange.replay_s", "repro.pipeline.engine", "replay_outcome"),
    ("plugins.trace_s", "repro.plugins.trace", "TracePlugin.finalize_run"),
    ("sharding.start_s", "repro.pipeline.sharding", "ShmPoolScanEngine.__init__"),
    ("sharding.prefetch_s", "repro.pipeline.sharding", "ShmPoolScanEngine.prefetch_weeks"),
    ("sharding.close_s", "repro.pipeline.sharding", "ShmPoolScanEngine.close"),
    ("checkpoint.store_s", "repro.pipeline.checkpoint", "CampaignCheckpointer.store"),
    ("analysis.figure3_s", "repro.analysis.figures", "figure3"),
    ("analysis.figure4_s", "repro.analysis.figures", "figure4"),
    ("analysis.figure8_s", "repro.analysis.figures", "figure8"),
    ("analysis.tables_s", "repro.analysis.tables", "table1"),
    ("analysis.tables_s", "repro.analysis.tables", "table2"),
    ("analysis.tables_s", "repro.analysis.tables", "table3"),
    ("analysis.tables_s", "repro.analysis.tables", "table4"),
    ("analysis.tables_s", "repro.analysis.tables", "table5"),
    ("analysis.tables_s", "repro.analysis.tables", "table6"),
    ("analysis.tables_s", "repro.analysis.tables", "table7"),
    ("analysis.tables_s", "repro.analysis.tables", "parking_summary"),
    ("analysis.report_s", "repro.cli", "longitudinal_report"),
    ("analysis.report_s", "repro.cli", "reference_report"),
)

#: Layers timed without a span (see :class:`Leaves`).
LEAVES = frozenset({"exchange.fresh_s", "exchange.replay_s"})

#: Layers a call is folded into instead of opening its own span:
#: ``figure8`` is ``figure4`` unfiltered, and its time belongs to Figure 8.
FOLD_INTO: dict[str, frozenset[str]] = {
    "analysis.figure4_s": frozenset({"analysis.figure8_s"}),
}

#: Root span around ``repro.cli.main``; its self time is not a layer.
ROOT = "cli"

#: Every per-layer metric of the runner's ``--trace 1`` result, with the
#: end-to-end metric and workload it should move.  The ``_s`` names are
#: the self seconds of the layers above, plus ``import.s`` (spawn ->
#: ``import repro.cli``), ``interp.exit_s`` (teardown), the bench's own
#: ``trace.export_s`` and ``unattributed_s``.  A layer that does not run
#: on a workload reads 0 there (``checkpoint.store_s`` off the pool).
MOVES: dict[str, tuple[str, str]] = {
    "import.s": ("setup_s", "scan-reference"),
    "web.build_s": ("setup_s", "campaign-weekly"),
    "web.snapshot_s": ("setup_s", "campaign-pool"),
    "web.sections_s": ("wall_s", "campaign-weekly"),
    "pipeline.campaign_s": ("wall_s", "campaign-weekly"),
    "pipeline.scan_s": ("wall_s", "scan-reference"),
    "pipeline.plan_s": ("wall_s", "scan-reference"),
    "pipeline.plan_calls": ("peak_rss_mb", "scan-reference"),
    "store.columns_s": ("wall_s", "scan-reference"),
    "pipeline.week_s": ("wall_s", "campaign-weekly"),
    "pipeline.weeks": ("wall_s", "campaign-weekly"),
    "pipeline.phase.site_s": ("wall_s", "campaign-fresh"),
    "pipeline.phase.attribution_s": ("wall_s", "scan-reference"),
    "exchange.fresh_s": ("wall_s", "campaign-fresh"),
    "exchange.fresh_n": ("cpu_s", "campaign-fresh"),
    "exchange.fresh_us": ("cpu_s", "campaign-fresh"),
    "exchange.replay_s": ("wall_s", "campaign-weekly"),
    "exchange.replay_n": ("wall_s", "campaign-weekly"),
    "exchange.hit_rate": ("wall_s", "campaign-weekly"),
    "plugins.trace_s": ("wall_s", "scan-reference"),
    "sharding.start_s": ("wall_s", "campaign-pool"),
    "sharding.prefetch_s": ("cpu_s", "campaign-pool"),
    "sharding.close_s": ("wall_s", "campaign-pool"),
    "sharding.retries": ("cpu_s", "campaign-pool"),
    "checkpoint.store_s": ("wall_s", "campaign-pool"),
    "checkpoint.writes": ("wall_s", "campaign-pool"),
    "checkpoint.bytes": ("wall_s", "campaign-pool"),
    "analysis.figure3_s": ("wall_s", "campaign-weekly"),
    "analysis.figure4_s": ("wall_s", "campaign-weekly"),
    "analysis.figure8_s": ("wall_s", "campaign-weekly"),
    "analysis.tables_s": ("wall_s", "scan-reference"),
    "analysis.report_s": ("wall_s", "campaign-weekly"),
    "interp.exit_s": ("wall_s", "scan-reference"),
    "trace.export_s": ("wall_s", "campaign-weekly"),
    "unattributed_s": ("wall_s", "campaign-weekly"),
    "trace.overhead_pct": ("wall_s", "campaign-fresh"),
}


class Leaves:
    """Self time of the :data:`LEAVES` calls, kept outside the span tree.

    ``totals`` is ``{layer: [self seconds, calls]}``; ``under`` is the
    leaf time spent inside each span, by span id, which
    :func:`self_times` takes off that span's self time.
    """

    def __init__(self):
        self.totals: dict[str, list] = {}
        self.under: dict[int | None, float] = {}


def resolve(module: str, path: str):
    """The (owner, attribute name) a wrapper entry patches."""
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def install(tracer) -> Leaves:
    """Wrap every :data:`WRAPPERS` entry point for ``tracer``.

    Wrappers stay for the life of the process.  Forked pool workers get
    the original functions back: their spans would land in a copy of the
    tracer that never reaches the parent.
    """
    leaves = Leaves()
    originals = []
    for layer, module, path in WRAPPERS:
        owner, name = resolve(module, path)
        fn = getattr(owner, name)
        originals.append((owner, name, fn))
        if layer in LEAVES:
            setattr(owner, name, _wrap_leaf(tracer, leaves, layer, fn))
        else:
            setattr(owner, name, _wrap(tracer, layer, fn))

    def restore() -> None:
        for owner, name, fn in originals:
            setattr(owner, name, fn)

    os.register_at_fork(after_in_child=restore)
    return leaves


def _wrap(tracer, layer: str, fn):
    fold = FOLD_INTO.get(layer, frozenset())

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        current = tracer.current()
        if current is not None and current.name in fold:
            return fn(*args, **kwargs)
        span = tracer.begin(layer, "bench")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span)

    return wrapper


def _wrap_leaf(tracer, leaves: Leaves, layer: str, fn):
    entry = leaves.totals.setdefault(layer, [0.0, 0])
    under = leaves.under
    spans = tracer.spans

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        current = tracer.current()
        parent = current.span_id if current is not None else None
        opened = len(spans)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = perf_counter() - start
            if len(spans) != opened:  # a spanned layer ran inside: it keeps its time
                inner = spans[opened:]
                seconds -= sum(s.duration or 0.0 for s in inner if s.parent_id == parent)
            entry[0] += seconds
            entry[1] += 1
            under[parent] = under.get(parent, 0.0) + seconds

    return wrapper


def self_times(spans, leaves: Leaves | None = None) -> dict[str, list]:
    """``{layer: [self seconds, calls]}`` over finished spans and leaves.

    A span's self time is its duration minus the durations of its
    direct children and the leaf calls made in it.  Spans come from one
    single-threaded tracer, so children nest inside their parent and
    never overlap each other.
    """
    child_time: dict[int | None, float] = dict(leaves.under) if leaves is not None else {}
    for span in spans:
        if span.parent_id is not None and span.duration is not None:
            child_time[span.parent_id] = child_time.get(span.parent_id, 0.0) + span.duration
    totals: dict[str, list] = {}
    for span in spans:
        if span.duration is None:
            continue
        entry = totals.setdefault(span.name, [0.0, 0])
        entry[0] += span.duration - child_time.get(span.span_id, 0.0)
        entry[1] += 1
    if leaves is not None:
        for layer, (seconds, calls) in leaves.totals.items():
            if calls:
                totals[layer] = [seconds, calls]
    return totals


def unattributed(wall: float, layers: dict[str, float]) -> float:
    """Traced wall time no layer claims (the root span's self time included)."""
    return wall - sum(seconds for name, seconds in layers.items() if name != ROOT)


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3
