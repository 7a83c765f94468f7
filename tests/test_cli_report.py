"""CLI commands and the full-text report builders."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.report import global_report, longitudinal_report, reference_report
from repro.cli import build_parser, main
from repro.pipeline.vantage import run_distributed

from tests.conftest import requires_fork


# ----------------------------------------------------------------------
# Report builders
# ----------------------------------------------------------------------
def test_reference_report_contains_all_tables(reference_run, ipv6_run):
    text = reference_report(reference_run, ipv6_run)
    for marker in (
        "Table 1",
        "Table 2",
        "Table 3",
        "Table 4",
        "Table 5",
        "Table 6",
        "Table 7",
        "Parking",
    ):
        assert marker in text
    assert "Cloudflare" in text
    assert "Arelion" in text


def test_reference_report_without_traces_skips_table4(shape_world):
    run = repro.run_weekly_scan(
        shape_world, shape_world.config.reference_week, populations=("toplist",)
    )
    text = reference_report(run)
    assert "Table 4" not in text
    assert "Table 1" in text


def test_longitudinal_report(campaign):
    text = longitudinal_report(campaign)
    assert "Figure 3" in text
    assert "Figure 4" in text
    assert "Figure 8" in text
    assert "LiteSpeed" in text


def test_global_report(shape_world, reference_run):
    dist = run_distributed(
        shape_world, main_run=reference_run, vantage_ids=["main-aachen", "aws-frankfurt"]
    )
    text = global_report(shape_world, dist)
    assert "Figure 7" in text
    assert "aws-frankfurt" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_parser_knows_all_commands():
    parser = build_parser()
    for command in ("scan", "campaign", "distributed", "l4s"):
        assert parser.parse_args([command]).command == command


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_l4s_runs(capsys):
    assert main(["l4s", "--rounds", "50"]) == 0
    out = capsys.readouterr().out
    assert "penalty" in out


def test_cli_scan_runs(capsys):
    code = main(["scan", "--scale", "20000", "--no-plugins"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Table 5" in out


# ----------------------------------------------------------------------
# --week parsing (regression: malformed weeks used to escape as a bare
# ``ValueError: not enough values to unpack`` traceback)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad_week", ["2023-15", "2023W15", "W15", "2023-W", "15"])
def test_cli_rejects_malformed_week_with_usage_error(capsys, bad_week):
    with pytest.raises(SystemExit) as excinfo:
        main(["scan", "--week", bad_week])
    assert excinfo.value.code == 2  # argparse usage error, not a traceback
    err = capsys.readouterr().err
    assert "invalid week" in err
    assert "2023-W15" in err  # the error teaches the expected form


def test_cli_rejects_out_of_range_week(capsys, monkeypatch):
    with pytest.raises(SystemExit) as excinfo:
        main(["scan", "--week", "2023-W54"])
    assert excinfo.value.code == 2
    assert "1..53" in capsys.readouterr().err
    # 2022 has 52 ISO weeks: its week 53 is a usage error too, caught
    # before any world is built (it used to raise from Week.monday).
    monkeypatch.setattr(repro, "build_world", None)
    with pytest.raises(SystemExit) as excinfo:
        main(["scan", "--week", "2022-W53"])
    assert excinfo.value.code == 2
    assert "2022 has no week 53" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Numeric options (regression: --cadence 0 hung forever in
# campaign_weeks, --cadence -4 died with OverflowError, and zero or
# negative counts, scales and timeouts escaped as ValueError tracebacks)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "argv",
    [
        ["campaign", "--cadence", "0"],
        ["campaign", "--cadence", "-4"],
        ["campaign", "--workers", "0"],
        ["campaign", "--workers", "2", "--shard-timeout", "0"],
        ["campaign", "--workers", "2", "--shard-timeout", "inf"],
        ["campaign", "--workers", "2", "--shard-retries", "-1"],
        ["scan", "--scale", "0"],
        ["scan", "--scale", "-3"],
        ["scan", "--scale", "nan"],
        ["scan", "--scale", "inf"],
        ["campaign", "--scale", "1e-9"],
        ["l4s", "--rounds", "0"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_cli_rejects_bad_numbers_with_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2  # argparse usage error, not a traceback
    assert f"argument {argv[-2]}: invalid" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Output paths (regression: a file passed as --checkpoint-dir or
# --world-cache, or a --trace-out in a missing directory, raised a
# traceback only after the world was built or the whole run finished)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "argv",
    [
        ["campaign", "--checkpoint-dir", "{file}"],
        ["scan", "--world-cache", "{file}"],
        ["campaign", "--world-cache", "{file}/sub"],
        ["campaign", "--trace-out", "{missing}/y.json"],
        ["scan", "--metrics-out", "{missing}/m.json"],
        ["campaign", "--metrics-out", "{dir}"],
        ["scan", "--trace-out", "{dir}"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_cli_rejects_bad_output_paths_before_building(
    tmp_path, monkeypatch, capsys, argv
):
    regular = tmp_path / "file"
    regular.write_text("not a directory")
    paths = dict(file=regular, missing=tmp_path / "missing", dir=tmp_path)
    built = []

    def no_build(*args, **kwargs):
        built.append(args)
        raise AssertionError("the world was built before the path was checked")

    monkeypatch.setattr(repro, "build_world", no_build)
    with pytest.raises(SystemExit) as excinfo:
        main([arg.format(**paths) for arg in argv])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    assert built == []


@pytest.mark.parametrize("scale", ["inf", "1e-9", "0.5"])
def test_cli_rejects_scale_before_building(monkeypatch, capsys, scale):
    """Regression: ``--scale inf`` printed a report of a 133-domain world
    and exited 0, and ``--scale 1e-9`` ran for minutes building a world
    far larger than the paper's."""

    def no_build(*args, **kwargs):
        raise AssertionError("the world was built before --scale was checked")

    monkeypatch.setattr(repro, "build_world", no_build)
    with pytest.raises(SystemExit) as excinfo:
        main(["scan", "--scale", scale])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "argument --scale: invalid scale value" in err
    assert "must be a finite number >= 1" in err


def test_cli_accepts_valid_week_forms():
    parser = build_parser()
    args = parser.parse_args(["scan", "--week", "2023-W15"])
    assert args.week == repro.Week(2023, 15)
    args = parser.parse_args(["scan", "--week", "2022-w9"])
    assert args.week == repro.Week(2022, 9)
    args = parser.parse_args(["scan", "--week", "2020-W53"])  # a 53-week year
    assert args.week == repro.Week(2020, 53)


# ----------------------------------------------------------------------
# --week applies to the IPv6 leg (regression: it always scanned the
# configured ipv6_week, silently ignoring the user's week)
# ----------------------------------------------------------------------
def _capture_scan_weeks(monkeypatch):
    calls = []

    def fake_scan(world, week, vantage_id="main-aachen", **kwargs):
        calls.append((week, kwargs.get("ip_version", 4)))
        return object()

    monkeypatch.setattr(repro, "run_weekly_scan", fake_scan)
    import repro.cli as cli_module

    monkeypatch.setattr(cli_module, "reference_report", lambda run, ipv6=None: "ok")
    return calls


def test_cli_scan_ipv6_leg_honours_explicit_week(monkeypatch, capsys):
    calls = _capture_scan_weeks(monkeypatch)
    assert main(["scan", "--scale", "40000", "--ipv6", "--week", "2023-W10"]) == 0
    assert calls == [
        (repro.Week(2023, 10), 4),
        (repro.Week(2023, 10), 6),
    ]


def test_cli_scan_ipv6_leg_defaults_to_ipv6_week(monkeypatch, capsys):
    calls = _capture_scan_weeks(monkeypatch)
    assert main(["scan", "--scale", "40000", "--ipv6"]) == 0
    from repro.web.spec import WorldConfig

    config = WorldConfig()
    assert calls == [
        (config.reference_week, 4),
        (config.ipv6_week, 6),
    ]


# ----------------------------------------------------------------------
# Telemetry flags: --metrics-out / --trace-out / --progress / --quiet
# ----------------------------------------------------------------------
def test_cli_campaign_diagnostics_go_to_stderr(capsys):
    assert main(["campaign", "--scale", "20000", "--cadence", "26"]) == 0
    captured = capsys.readouterr()
    assert "Figure 3" in captured.out  # the report stays on stdout
    assert "exchange cache:" in captured.err
    assert "exchange cache:" not in captured.out


def test_cli_quiet_silences_diagnostics(capsys):
    assert main(["campaign", "--scale", "20000", "--cadence", "26", "--quiet"]) == 0
    captured = capsys.readouterr()
    assert "Figure 3" in captured.out
    assert captured.err == ""


@requires_fork
def test_cli_campaign_metrics_and_trace_out(tmp_path, capsys):
    import json

    from repro.obs import load_metrics

    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.json"
    code = main(
        [
            "campaign",
            "--scale", "20000",
            "--cadence", "26",
            "--workers", "2",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert f"metrics: {metrics_path}" in captured.err
    assert f"trace: {trace_path}" in captured.err

    report = load_metrics(metrics_path)  # schema-checked load
    metrics = report["metrics"]
    # The report reproduces every counter the CLI prints as diagnostics.
    for name in (
        "campaign.weeks",
        "campaign.domains",
        "campaign.exchange_cache.hits",
        "campaign.exchange_cache.misses",
        "campaign.exchange_cache.hit_rate",
        "campaign.supervision.retries",
        "campaign.supervision.fallbacks",
    ):
        assert name in metrics, name
    assert metrics["campaign.weeks"]["value"] > 0
    assert report["spans"]["campaign.campaign"]["count"] == 1

    document = json.loads(trace_path.read_text())
    events = document["traceEvents"]
    assert events and all(event["ph"] == "X" for event in events)
    assert {"campaign", "week"} <= {event["name"] for event in events}


def test_cli_campaign_metrics_time_the_analysis(tmp_path, capsys):
    """The analysis gauge carries the report's wall time, not a 0.0."""
    from repro.obs import load_metrics

    metrics_path = tmp_path / "metrics.json"
    code = main(
        ["campaign", "--scale", "20000", "--cadence", "26", "--quiet",
         "--metrics-out", str(metrics_path)]
    )
    assert code == 0
    assert "Figure 3" in capsys.readouterr().out
    metrics = load_metrics(metrics_path)["metrics"]
    assert metrics["campaign.phase.analysis_seconds"]["value"] > 0


def test_cli_scan_metrics_out(tmp_path, capsys):
    from repro.obs import load_metrics

    metrics_path = tmp_path / "metrics.json"
    code = main(
        ["scan", "--scale", "20000", "--no-plugins",
         "--metrics-out", str(metrics_path)]
    )
    assert code == 0
    metrics = load_metrics(metrics_path)["metrics"]
    assert "campaign.exchange_cache.hit_rate" in metrics
    assert metrics["campaign.phase.site_seconds"]["value"] > 0


def test_cli_progress_heartbeat(capsys):
    assert main(
        ["campaign", "--scale", "20000", "--cadence", "26", "--progress"]
    ) == 0
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line.startswith("[progress]")]
    assert lines, "expected [progress] heartbeat lines on stderr"
    assert "week" in lines[-1] and "dom/s" in lines[-1]
    assert "[progress]" not in captured.out


# ----------------------------------------------------------------------
# --checkpoint-dir on the serial engine
# ----------------------------------------------------------------------
def test_cli_serial_campaign_checkpoints_and_resumes(tmp_path, capsys):
    from repro.obs import load_metrics

    checkpoints = tmp_path / "checkpoints"
    args = ["campaign", "--scale", "20000", "--cadence", "26",
            "--checkpoint-dir", str(checkpoints)]
    assert main(args) == 0  # no --workers needed
    first = capsys.readouterr().out
    stored = list(checkpoints.rglob("*.ecnc"))
    assert stored
    metrics_path = tmp_path / "metrics.json"
    assert main(args + ["--resume", "--metrics-out", str(metrics_path)]) == 0
    assert capsys.readouterr().out == first
    metrics = load_metrics(metrics_path)["metrics"]
    assert metrics["campaign.checkpoint.weeks_resumed"]["value"] == len(stored)
    # Trace results are not checkpointed: a usage error, not a traceback.
    assert main(args + ["--plugins", "ecn,trace"]) == 2
    assert "trace plugin" in capsys.readouterr().err


# ----------------------------------------------------------------------
# --world-cache
# ----------------------------------------------------------------------
def test_cli_world_cache_persists_and_rehydrates(tmp_path, capsys):
    args = ["scan", "--scale", "40000", "--no-plugins",
            "--world-cache", str(tmp_path)]
    assert main(args) == 0
    cold_out = capsys.readouterr().out
    cached = list(tmp_path.glob("world-*.ecnw"))
    assert len(cached) == 1
    assert main(args) == 0  # rehydrates from disk
    assert capsys.readouterr().out == cold_out


# ----------------------------------------------------------------------
# Closed stdout
# ----------------------------------------------------------------------
def test_cli_exits_quietly_when_the_reader_closes_stdout():
    """``repro scan | head`` must not end in a BrokenPipeError traceback:
    the CLI exits 141, as a shell reports a process killed by SIGPIPE."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "scan", "--scale", "40000", "--no-plugins"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    child.stdout.close()  # the reader goes away before the report is printed
    stderr = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 141, stderr
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr
