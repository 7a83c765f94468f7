"""One ``repro`` CLI invocation inside the benchmark's own interpreter.

Usage (the runner builds this command; it is not meant for humans)::

    python child.py RESULT SPAWN [--traced] [--trace-out FILE] -- CLI-ARGS...

It runs ``repro.cli.main(CLI-ARGS)`` exactly as ``python -m repro`` does,
stdout and exit code included, and writes a JSON side report to RESULT:

* ``t_import`` / ``t_world`` / ``t_end`` — ``perf_counter`` stamps after
  ``import repro.cli``, when the world call returns, and just before
  interpreter teardown.  On Linux ``perf_counter`` is CLOCK_MONOTONIC,
  shared with the runner, which passes its own spawn stamp as SPAWN.
* ``domains`` — observations the report covers (O(1) per run).
* ``live_segments`` — shared-memory segments the process still owns.
* with ``--traced``: per-layer ``[self seconds, calls]`` from bench-side
  spans and leaf timers around the entry points in :mod:`layers`, and
  the Chrome trace of the spans written to FILE through
  ``repro.obs.export.write_trace``.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter


def _campaign_runs(campaign):
    return campaign.runs


def _scan_runs(run, ipv6_run=None):
    return [r for r in (run, ipv6_run) if r is not None]


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    result_path, spawn = own[0], float(own[1])
    traced = "--traced" in own
    trace_out = own[own.index("--trace-out") + 1] if "--trace-out" in own else None

    import repro.cli
    import repro.web.snapshot

    stamps = {"t_import": perf_counter(), "t_world": None, "domains": 0}

    def stamp_world(fn):
        def wrapper(*args, **kwargs):
            world = fn(*args, **kwargs)
            if stamps["t_world"] is None:
                stamps["t_world"] = perf_counter()
            return world

        return wrapper

    def count_domains(fn, runs_of):
        def wrapper(*args, **kwargs):
            stamps["domains"] += sum(len(run.observations) for run in runs_of(*args))
            return fn(*args, **kwargs)

        return wrapper

    repro.build_world = stamp_world(repro.build_world)
    repro.web.snapshot.acquire_world = stamp_world(repro.web.snapshot.acquire_world)
    repro.cli.longitudinal_report = count_domains(repro.cli.longitudinal_report, _campaign_runs)
    repro.cli.reference_report = count_domains(repro.cli.reference_report, _scan_runs)

    tracer = None
    if traced:
        import layers
        from repro.obs import Span, Tracer

        tracer = Tracer()
        # Interpreter start-up and ``import repro`` are the first layer a
        # user pays; the span starts at the runner's spawn stamp.
        imported = Span("import.s", "bench", spawn, 0, None, os.getpid())
        imported.duration = stamps["t_import"] - spawn
        tracer.adopt([imported], None)
        leaves = layers.install(tracer)
        root = tracer.begin(layers.ROOT, "bench")
    code = repro.cli.main(cli_args)
    report: dict = {}
    if tracer is not None:
        tracer.end(root)
        report["layers"] = layers.self_times(tracer.spans, leaves)
        if trace_out is not None:
            from repro.obs.export import write_trace

            write_trace(trace_out, tracer)
        # Self-time arithmetic and the trace file are bench work, not a
        # program layer; they are charged to their own name.
        export_s = perf_counter() - root.start - root.duration
        report["layers"]["trace.export_s"] = [export_s, 1]
    shm = sys.modules.get("repro.util.shm")
    report.update(
        stamps,
        live_segments=shm.live_segments() if shm is not None else [],
        t_end=perf_counter(),
    )
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
