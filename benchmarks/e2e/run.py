"""Cold end-to-end benchmark of the ``repro`` CLI, with a traced per-layer split.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--seed N] [--trace-out DIR]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured run is a fresh interpreter running one ``repro`` command
(:mod:`child`), one at a time: a closed loop with a single client.  Each
invocation first runs the untimed reference command(s), which fill
``__pycache__``, the page cache and the pool workload's world cache, and
whose stdout every later run must reproduce byte for byte.

Without ``--workload`` the runner makes 5 timed rounds over all four
workloads (round-robin), then one traced run per workload, and prints
the end-to-end table, the per-layer table and a JSON summary.  With
``--workload`` it measures that workload for ``--seconds``, reference
run included: timed runs (``--trace 0``) for the end-to-end metrics, or
timed and traced runs in turn (``--trace 1``) for the per-layer metrics.
Every run gets ``--seed``.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when a run failed or the per-layer coverage gate tripped.

Metric and workload definitions: README.md next to this file.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from time import perf_counter

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: The CLI's own default ``--seed``; the pinned digests hold for it.
DEFAULT_SEED = 20230415

WORLD_CACHE = "{world_cache}"
CHECKPOINTS = "{checkpoints}"
CAMPAIGN = ("campaign", "--scale", "1000", "--cadence", "1")
SCAN = ("scan", "--scale", "1000", "--ipv6")
POOL = ("--workers", "2", "--world-cache", WORLD_CACHE, "--checkpoint-dir", CHECKPOINTS)

#: Workload -> (CLI arguments, report kind).  Why each exists: README.md.
WORKLOADS: dict[str, tuple[tuple[str, ...], str]] = {
    "campaign-weekly": (CAMPAIGN, "campaign"),
    "campaign-fresh": (CAMPAIGN + ("--no-exchange-cache",), "campaign"),
    "scan-reference": (SCAN, "scan"),
    "campaign-pool": (CAMPAIGN + POOL, "campaign"),
}

#: Untimed reference command per report kind: serial with the replay
#: cache on.  The campaign reference also writes the world snapshot
#: that ``campaign-pool`` reads, so all three campaign workloads must
#: print exactly its stdout.
REFERENCES: dict[str, tuple[str, ...]] = {
    "campaign": CAMPAIGN + ("--world-cache", WORLD_CACHE),
    "scan": SCAN,
}

#: sha256 of each report kind's stdout under :data:`DEFAULT_SEED`.  Under
#: another seed a run is checked against that invocation's reference.
PINNED_DIGESTS = {
    "campaign": "f895335dc115cead8c53b177b4331676c401b04861ae063769d833097c99bc65",
    "scan": "e1fc56325d302f8a99b0b08ab2f9b73b03eb3b8da29f126c4eb6dc0ce921d201",
}

ROUNDS = 5
RUN_TIMEOUT_S = 120.0
ORPHAN_TIMEOUT_S = 10.0
COVERAGE_LIMIT = 0.05
PR_SET_CHILD_SUBREAPER = 36


class Run:
    """One CLI process: its timings, resource usage and side report."""

    def __init__(self, workload: str, traced: bool):
        self.workload = workload
        self.traced = traced
        self.error: str | None = None
        self.digest = ""
        self.wall = self.setup = self.cpu = self.rss_mb = 0.0
        self.domains = 0
        self.report: dict = {}
        self.registry: dict = {}
        self.checkpoint_bytes = 0
        self.exit_s = 0.0


class Bench:
    def __init__(self, seed: int, work: Path, trace_out: Path | None):
        self.seed = seed
        self.work = work
        self.trace_out = trace_out
        self.world_cache = work / "world-cache"
        self.references: dict[str, str] = {}
        self.runs: list[Run] = []
        pythonpath = filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(pythonpath))

    def reference(self, kind: str) -> None:
        run = self.execute(kind, REFERENCES[kind], traced=False)
        pinned = PINNED_DIGESTS[kind]
        if run.error is None and self.seed == DEFAULT_SEED and run.digest != pinned:
            run.error = f"stdout sha256 {run.digest[:12]}… != pinned {pinned[:12]}…"
        self.references[kind] = run.digest

    def measure(self, workload: str, traced: bool) -> Run:
        args, kind = WORKLOADS[workload]
        run = self.execute(workload, args, traced)
        if run.error is None and run.digest != self.references[kind]:
            run.error = (
                f"stdout sha256 {run.digest[:12]}… differs from the "
                f"{kind} reference {self.references[kind][:12]}…"
            )
        return run

    def cli(self, args, run_dir: Path) -> list[str]:
        """The ``repro`` arguments of one run: paths filled in, ``--seed`` added."""
        paths = {WORLD_CACHE: str(self.world_cache), CHECKPOINTS: str(run_dir / "checkpoints")}
        return [paths.get(arg, arg) for arg in args] + ["--seed", str(self.seed)]

    def execute(self, workload: str, args, traced: bool) -> Run:
        run = Run(workload, traced)
        self.runs.append(run)
        run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=self.work))
        cli = self.cli(args, run_dir)
        own = []
        if traced:
            out = self.trace_out if self.trace_out is not None else run_dir
            metrics_path = out / f"{workload}.metrics.json"
            cli += ["--metrics-out", str(metrics_path)]
            own += ["--traced"]
            if self.trace_out is not None:
                own += ["--trace-out", str(out / f"{workload}.trace.json")]
        result = run_dir / "result.json"
        child = [sys.executable, str(HERE / "child.py"), str(result)]
        env = dict(self.env, TMPDIR=str(run_dir))
        with open(run_dir / "stdout", "wb") as stdout, open(run_dir / "stderr", "wb") as stderr:
            spawn = perf_counter()
            proc = subprocess.Popen(
                [*child, repr(spawn), *own, "--", *cli],
                stdout=stdout,
                stderr=stderr,
                env=env,
                cwd=run_dir,
                start_new_session=True,
            )
            timer = threading.Timer(RUN_TIMEOUT_S, _signal_group, (proc.pid, signal.SIGTERM))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: take the CLI down with us
                _signal_group(proc.pid, signal.SIGTERM)
                os.wait4(proc.pid, 0)
                _reap_orphans(proc.pid)
                raise
            finally:
                timer.cancel()
            end = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        clean = _reap_orphans(proc.pid)
        run.wall = end - spawn
        run.cpu = usage.ru_utime + usage.ru_stime
        run.rss_mb = usage.ru_maxrss / 1024
        run.digest = hashlib.sha256((run_dir / "stdout").read_bytes()).hexdigest()
        if proc.returncode != 0 or not result.exists():
            tail = (run_dir / "stderr").read_text(errors="replace").strip().splitlines()[-3:]
            run.error = f"exit code {proc.returncode}: {' | '.join(tail)}"
            return run
        run.report = json.loads(result.read_text())
        run.setup = run.report["t_world"] - spawn
        run.domains = run.report["domains"]
        run.exit_s = end - run.report["t_end"]
        if run.report["live_segments"]:
            run.error = f"leaked shared-memory segments {run.report['live_segments']}"
        elif not clean:
            run.error = f"processes left behind after {ORPHAN_TIMEOUT_S:.0f} s"
        if traced:
            run.registry = json.loads(metrics_path.read_text())["metrics"]
            run.checkpoint_bytes = sum(
                p.stat().st_size for p in (run_dir / "checkpoints").rglob("*") if p.is_file()
            )
        return run


def _become_subreaper() -> None:
    """Adopt orphaned descendants, so :func:`_reap_orphans` can wait for them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):  # not Linux: nothing to adopt
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _signal_group(group: int, signum: int) -> None:
    """Signal the CLI's process group (the CLI, pool workers, resource tracker).

    SIGTERM ends the CLI and its workers; the multiprocessing resource
    tracker ignores it and exits once they are gone, unlinking any
    shared-memory segment they left.
    """
    try:
        os.killpg(group, signum)
    except ProcessLookupError:
        pass


def _reap_orphans(group: int) -> bool:
    """Wait for what the CLI left running (the multiprocessing resource tracker).

    Returns False when they outlived :data:`ORPHAN_TIMEOUT_S` and had to
    be killed.
    """
    deadline = perf_counter() + ORPHAN_TIMEOUT_S
    clean = True
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return clean
        if pid == 0:
            if clean and perf_counter() > deadline:
                clean = False
                _signal_group(group, signal.SIGKILL)
            time.sleep(0.005)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(runs: list[Run]) -> dict[str, list[float]]:
    """Per-run values of every end-to-end metric."""
    return {
        "wall_s": [r.wall for r in runs],
        "setup_s": [r.setup for r in runs],
        "domains_per_s": [r.domains / r.wall for r in runs],
        "cpu_s": [r.cpu for r in runs],
        "peak_rss_mb": [r.rss_mb for r in runs],
    }


def _counter(registry: dict, name: str) -> float:
    return registry.get(name, {}).get("value", 0)


def fine_layers(run: Run) -> dict[str, float]:
    """Self seconds per wrapped layer of one traced run, plus the exit."""
    fine = {name: seconds for name, (seconds, _) in run.report["layers"].items()}
    fine["interp.exit_s"] = run.exit_s
    fine["unattributed_s"] = layers.unattributed(run.wall, fine)
    return fine


def per_layer(run: Run, fine: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics (:data:`layers.MOVES`) of one traced run.

    The ``_s`` metrics are the fine layers' self seconds, 0 where a
    layer did not run, except the two ``pipeline.phase`` gauges from the
    CLI's registry; the rest are counts and ratios.  Forked pool workers
    record no spans, so their exchanges come from the counters the pool
    ships.
    """
    calls = {name: n for name, (_, n) in run.report["layers"].items()}
    reg = run.registry
    fresh = (
        calls.get("exchange.fresh_s", 0)
        + _counter(reg, "worker.exchange_cache.misses")
        + _counter(reg, "worker.exchange_cache.uncacheable")
    )
    replay = calls.get("exchange.replay_s", 0) + _counter(reg, "worker.exchange_cache.hits")
    parent_fresh = calls.get("exchange.fresh_s", 0)
    metrics = {name: fine.get(name, 0.0) for name in layers.MOVES}
    metrics.update(
        {
            "pipeline.plan_calls": calls.get("pipeline.plan_s", 0),
            "pipeline.weeks": calls.get("pipeline.week_s", 0),
            "pipeline.phase.site_s": _counter(reg, "campaign.phase.site_seconds"),
            "pipeline.phase.attribution_s": _counter(reg, "campaign.phase.attribution_seconds"),
            "exchange.fresh_n": fresh,
            "exchange.fresh_us": (
                1e6 * fine.get("exchange.fresh_s", 0.0) / parent_fresh if parent_fresh else 0.0
            ),
            "exchange.replay_n": replay,
            "exchange.hit_rate": replay / (replay + fresh) if replay + fresh else 0.0,
            "sharding.retries": _counter(reg, "campaign.supervision.retries"),
            "checkpoint.writes": calls.get("checkpoint.store_s", 0),
            "checkpoint.bytes": run.checkpoint_bytes,
        }
    )
    return metrics


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(d.get(name, 0.0) for d in dicts) for name in dicts[0]}


def summarize(runs: list[Run]) -> tuple[dict, dict, float]:
    """(end-to-end values, per-layer medians, traced wall median) of one workload."""
    timed = [r for r in runs if not r.traced and r.error is None]
    traced = [r for r in runs if r.traced and r.error is None]
    e2e = end_to_end(timed) if timed else {}
    if not traced:
        return e2e, {}, 0.0
    metrics = median_of([per_layer(r, fine_layers(r)) for r in traced])
    traced_wall = statistics.median(r.wall for r in traced)
    if e2e:
        timed_wall = statistics.median(e2e["wall_s"])
        metrics["trace.overhead_pct"] = 100 * (traced_wall / timed_wall - 1)
    return e2e, metrics, traced_wall


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _table(title: str, rows: dict[str, dict[str, str]], columns: list[str]) -> None:
    if not rows:
        return
    width = max(len(name) for name in rows)
    cell = max(len(text) for cells in rows.values() for text in [*cells.values(), *columns]) + 2
    print(title)
    print(" " * width + "".join(f"{c:>{cell}s}" for c in columns))
    for name, cells in rows.items():
        print(f"{name:<{width}s}" + "".join(f"{cells.get(c, '-'):>{cell}s}" for c in columns))
    print()


def _cell(values: list[float]) -> str:
    q1, median, q3 = layers.quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def report(bench: Bench, names: list[str], definition: dict) -> tuple[dict, bool]:
    """Print the tables; return the JSON metrics and the coverage verdict."""
    single = len(names) == 1
    units = {m["name"]: m["unit"] for m in definition["end_to_end"] + definition["per_layer"]}
    e2e_rows: dict[str, dict[str, str]] = {}
    layer_rows: dict[str, dict[str, str]] = {m: {} for m in [*layers.MOVES, "traced.wall_s"]}
    metrics: dict[str, dict] = {}
    covered = True
    for name in names:
        e2e, per, traced_wall = summarize([r for r in bench.runs if r.workload == name])
        for metric, values in e2e.items():
            e2e_rows.setdefault(metric, {})[name] = f"{_cell(values)} n={len(values)}"
        for metric, value in per.items():
            layer_rows[metric][name] = f"{value:.6g}"
        if per:
            layer_rows["traced.wall_s"][name] = f"{traced_wall:.6g}"
        if per and per["unattributed_s"] > COVERAGE_LIMIT * traced_wall:
            covered = False
            print(
                f"coverage gate: {name} leaves {per['unattributed_s']:.3f} s of "
                f"{traced_wall:.3f} s unattributed (limit {COVERAGE_LIMIT:.0%})",
                file=sys.stderr,
            )
        values = {m: statistics.median(v) for m, v in e2e.items()} | per
        for metric, value in values.items():
            if metric in units:
                key = metric if single else f"{name}.{metric}"
                metrics[key] = {"value": value, "unit": units[metric]}
    _table("end-to-end, timed runs: median [Q1, Q3]", e2e_rows, names)
    if layer_rows["traced.wall_s"]:
        _table("per-layer metrics, traced runs: medians", layer_rows, names)
    return metrics, covered


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--trace-out", metavar="DIR", type=Path, default=None)
    return parser.parse_args(argv)


def measure(
    bench: Bench, names: list[str], seconds: float | None, trace: int | None, started: float
) -> None:
    """Round-robin rounds over ``names`` until the run count or time is spent.

    With ``seconds``, the window opened at ``started``, before the
    reference runs.  The first round always runs; a later one starts
    only if the longest round so far still fits in what is left.
    """
    kinds = (False, True) if trace == 1 else (False,)
    rounds = 0
    longest = 0.0
    while True:
        begun = perf_counter()
        for name in names:
            for traced in kinds:
                if bench.measure(name, traced).error is not None:
                    return
        rounds += 1
        now = perf_counter()
        longest = max(longest, now - begun)
        if seconds is None:
            if rounds >= ROUNDS:
                break
        elif now - started + longest > seconds:
            break
    if trace is None:
        for name in names:
            bench.measure(name, traced=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.trace_out is not None:
        args.trace_out.mkdir(parents=True, exist_ok=True)
        args.trace_out = args.trace_out.resolve()
    _become_subreaper()
    # SIGTERM unwinds like an exception, so the CLI and the work dir go too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="e2e-", dir=ROOT / ".bench_build"))
    try:
        started = perf_counter()
        bench = Bench(args.seed, work, args.trace_out)
        for kind in dict.fromkeys(WORKLOADS[name][1] for name in names):
            bench.reference(kind)
        if all(r.error is None for r in bench.runs):
            measure(bench, names, args.seconds, args.trace, started)
        failed = [r for r in bench.runs if r.error is not None]
        for run in failed:
            print(f"FAILED {run.workload}: {run.error}", file=sys.stderr)
        metrics, covered = report(bench, names, definition)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace == 0:
        wanted = {m["name"] for m in definition["end_to_end"]}
    elif args.trace == 1:
        wanted = {m["name"] for m in definition["per_layer"]}
    else:
        wanted = None
    if wanted is not None:
        metrics = {k: v for k, v in metrics.items() if k in wanted}
    summary = {
        "correct": not failed,
        "attempted": len(bench.runs),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if not failed and covered else 1


if __name__ == "__main__":
    raise SystemExit(main())
