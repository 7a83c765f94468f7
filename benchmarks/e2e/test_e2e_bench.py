"""Fast checks of the end-to-end benchmark's definitions and arithmetic.

Spawns no workload: a renamed entry point, a malformed BENCHMARK.json or
broken self-time arithmetic fails here instead of silently zeroing a
layer in the next benchmark run.
"""

from __future__ import annotations

import importlib
import json
import re

import layers
import pytest
import run

from repro.obs import Span, Tracer

DEFINITION = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("layer, module, path", layers.WRAPPERS)
def test_wrapped_entry_point_exists(layer, module, path):
    owner, name = layers.resolve(module, path)
    assert callable(getattr(owner, name)), f"{layer}: {module}.{path}"
    assert layer in layers.MOVES, f"{layer} is wrapped but not reported"


def test_every_run_gets_the_seed(tmp_path):
    bench = run.Bench(7, tmp_path, None)
    commands = [args for args, _ in run.WORKLOADS.values()] + list(run.REFERENCES.values())
    for args in commands:
        cli = bench.cli(args, tmp_path)
        assert cli.count("--seed") == 1 and cli[cli.index("--seed") + 1] == "7", cli
        assert not any(arg.startswith("{") for arg in cli), cli


def test_definition_shape():
    keys = ("command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")
    assert set(DEFINITION) == set(keys)
    assert DEFINITION["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert DEFINITION["paths"] == ["benchmarks/e2e"]
    assert 1 <= DEFINITION["run_seconds"] <= 60
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DEFINITION["workloads"])
    workloads = [w["name"] for w in DEFINITION["workloads"]]
    e2e = DEFINITION["end_to_end"]
    per_layer = DEFINITION["per_layer"]
    assert 2 <= len(workloads) <= 8 and len(e2e) <= 16 and len(per_layer) <= 128
    names = workloads + [m["name"] for m in e2e + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names), names
    assert all(UNIT.fullmatch(m["unit"]) for m in e2e + per_layer)
    assert workloads == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in e2e}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_metric_names_what_it_moves():
    e2e = {m["name"] for m in DEFINITION["end_to_end"]}
    workloads = {w["name"] for w in DEFINITION["workloads"]}
    assert [m["name"] for m in DEFINITION["per_layer"]] == list(layers.MOVES)
    for metric, (moves, workload) in layers.MOVES.items():
        assert moves in e2e and workload in workloads, metric


def test_runner_computes_every_metric():
    traced = run.Run("campaign-pool", traced=True)
    traced.wall, traced.exit_s = 10.0, 0.5
    traced.report = {"layers": {"cli": [0.1, 1], "import.s": [0.2, 1], "web.build_s": [1, 1]}}
    traced.registry = {"worker.exchange_cache.hits": {"value": 3}}
    timed = run.Run("campaign-pool", traced=False)
    timed.wall, timed.domains = 8.0, 100
    e2e, per, _ = run.summarize([timed, traced])
    assert set(e2e) == {m["name"] for m in DEFINITION["end_to_end"]}
    assert set(per) == set(layers.MOVES)
    assert per["unattributed_s"] == pytest.approx(10.0 - 0.2 - 1 - 0.5)
    assert per["web.build_s"] == 1 and per["checkpoint.store_s"] == 0.0
    assert per["trace.overhead_pct"] == pytest.approx(25.0)
    assert per["exchange.hit_rate"] == 1.0


def _span(span_id, parent_id, start, end, name):
    span = Span(name, "bench", start, span_id, parent_id, 0)
    span.duration = end - start
    return span


def test_self_times_leave_the_gap_unattributed():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and a second a
    # [5, 9]; [0, 1], [4, 5] and [9, 10] belong to no layer, and the
    # process ran 1 s past the root span.
    spans = [
        _span(1, None, 0.0, 10.0, layers.ROOT),
        _span(2, 1, 1.0, 4.0, "a"),
        _span(3, 2, 2.0, 3.0, "b"),
        _span(4, 1, 5.0, 9.0, "a"),
    ]
    times = layers.self_times(spans)
    assert times == {layers.ROOT: [3.0, 1], "a": [6.0, 2], "b": [1.0, 1]}
    seconds = {name: total for name, (total, _) in times.items()}
    assert layers.unattributed(11.0, seconds) == pytest.approx(4.0)


def test_quartiles():
    assert layers.quartiles([5, 1, 4, 2, 3]) == (1.5, 3, 4.5)
    assert layers.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_leaf_time_comes_off_its_span_but_not_off_nested_spans(monkeypatch):
    # Each leaf call takes 3.5 s, 1 s of it in a spanned layer "b";
    # the root span runs 1 s of its own around two leaf calls.
    clock = [0.0]
    spans_module = importlib.import_module("repro.obs.spans")
    monkeypatch.setattr(layers, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(spans_module, "perf_counter", lambda: clock[0])

    def tick(seconds):
        clock[0] += seconds

    tracer = Tracer()
    leaves = layers.Leaves()
    inner = layers._wrap(tracer, "b", lambda: tick(1.0))
    leaf = layers._wrap_leaf(tracer, leaves, "x", lambda: (tick(2.0), inner(), tick(0.5)))
    root = tracer.begin(layers.ROOT, "bench")
    tick(1.0)
    leaf()
    leaf()
    tracer.end(root)
    times = layers.self_times(tracer.spans, leaves)
    assert times == {layers.ROOT: [1.0, 1], "b": [2.0, 2], "x": [5.0, 2]}
