"""Command-line interface: ``python -m repro <command>``.

Commands mirror the measurement phases of the paper:

* ``scan``         — one weekly scan from the main vantage point;
                     prints Tables 1-7.
* ``campaign``     — longitudinal snapshots; prints Figures 3/4/8.
* ``distributed``  — 17-vantage distributed run; prints Figure 7.
* ``l4s``          — the §9.3 L4S re-marking experiment.

``scan`` and ``campaign`` select measurement plugins with ``--plugins``
(comma-separated; ``--no-plugins`` keeps just the core ``ecn`` scan) —
tracebox sampling is the ``trace`` plugin, ECN greasing the ``grease``
plugin; see docs/plugins.md.  World options (``--scale``/``--seed``/
``--world-cache``) are shared by every world-building subcommand via
one parent parser.

Reports print to stdout; diagnostics (cache/supervision stats, the
``--progress`` heartbeat, obs-output notes) go to stderr, silenced by
``--quiet``.  Numeric options are validated argparse-side: a zero or
negative count, cadence or timeout, a timeout that is not finite, and
a scale that is not a finite number >= 1, is a usage error (exit 2), and
so is an output path that cannot be written (``--world-cache`` or
``--checkpoint-dir`` naming a file, ``--metrics-out``/``--trace-out``
in a missing directory).
``scan`` and ``campaign`` take ``--metrics-out`` / ``--trace-out`` for
the telemetry layer (docs/observability.md).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from time import perf_counter

import repro
from repro.analysis.report import global_report, longitudinal_report, reference_report
from repro.l4s.experiment import run_l4s_experiment
from repro.pipeline.engine import ScanPhaseStats
from repro.util.weeks import Week
from repro.web.spec import WorldConfig


def _number_type(convert, name: str, *, minimum, inclusive: bool, finite: bool = False):
    """An argparse type: ``convert`` the text, then bound it below
    (and, with ``finite``, reject infinity).

    Raising :class:`argparse.ArgumentTypeError` turns a bad value into
    a usage message and exit 2 instead of a traceback deep in the run.
    """

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {name} value: {text!r}") from None
        in_range = value >= minimum if inclusive else value > minimum  # NaN fails too
        if not in_range or (finite and not math.isfinite(value)):
            bound = ">=" if inclusive else ">"
            kind = "a finite number " if finite else ""
            raise argparse.ArgumentTypeError(
                f"invalid {name} value: {text!r} (must be {kind}{bound} {minimum})"
            )
        return value

    parse.__name__ = name  # argparse names the type in its messages
    return parse


_positive_int = _number_type(int, "positive int", minimum=1, inclusive=True)
_non_negative_int = _number_type(int, "non-negative int", minimum=0, inclusive=True)
#: ``--shard-timeout``: an infinite deadline would overflow the pool's
#: wait and turn every ticket into an inline re-execution.
_positive_float = _number_type(
    float, "positive float", minimum=0.0, inclusive=False, finite=True
)
#: ``--scale``: the bound :class:`WorldConfig` enforces, checked before
#: any world is built.
_scale = _number_type(float, "scale", minimum=1, inclusive=True, finite=True)


def _directory(text: str) -> str:
    """argparse type for a directory the run creates on demand.

    The path, or its nearest existing ancestor, must be a directory —
    checked before any world is built, not when the first write fails.
    """
    path = os.path.abspath(text)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"not a directory: {path!r}")
    return text


def _output_file(text: str) -> str:
    """argparse type for a file written after the run: its directory
    must exist and the path must not name a directory."""
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"is a directory: {text!r}")
    parent = os.path.dirname(text) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"no such directory: {parent!r}")
    return text


def _world_parent() -> argparse.ArgumentParser:
    """The shared world options, hoisted into one parent parser.

    Every subcommand that builds a world inherits these via
    ``parents=[...]`` instead of redeclaring them, so help text,
    defaults and future world options stay in one place.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--scale",
        type=_scale,
        default=4_000,
        help="world scale: 1 simulated domain = SCALE real domains",
    )
    parent.add_argument("--seed", type=int, default=20230415)
    parent.add_argument(
        "--world-cache",
        metavar="DIR",
        type=_directory,
        default=None,
        help="snapshot cache directory: the built world is stored as a "
             "compact snapshot keyed on its config/spec fingerprint and "
             "rehydrated on later runs instead of being rebuilt "
             "(docs/architecture.md#world-lifecycle)",
    )
    return parent


def _add_plugin_args(
    parser: argparse.ArgumentParser, *, default: tuple[str, ...]
) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--plugins",
        metavar="LIST",
        default=None,
        help="comma-separated measurement plugins to run (default: "
             f"{','.join(default)}; the core 'ecn' plugin is always "
             "included; see docs/plugins.md)",
    )
    group.add_argument(
        "--no-plugins",
        action="store_true",
        help="run only the core ecn scan (equivalent to --plugins ecn)",
    )
    parser.set_defaults(default_plugins=default)


def _resolve_plugin_args(args) -> "tuple[str, ...] | None":
    """The subcommand's plugin selection; ``None`` after an exit-2 error."""
    from repro.plugins.registry import resolve_plugins

    if args.no_plugins:
        names: tuple[str, ...] = ("ecn",)
    elif args.plugins is not None:
        names = tuple(p.strip() for p in args.plugins.split(",") if p.strip())
        if "ecn" not in names:
            names = ("ecn",) + names
    else:
        names = args.default_plugins
    try:
        return resolve_plugins(names).names
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return None


def _add_obs_args(parser: argparse.ArgumentParser, *, progress: bool = True) -> None:
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        type=_output_file,
        default=None,
        help="write the run's metrics registry and span summaries as "
             "schema-versioned JSON (docs/observability.md)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        type=_output_file,
        default=None,
        help="write the run's span tree as Chrome trace-event JSON, "
             "loadable in Perfetto or chrome://tracing",
    )
    if progress:
        parser.add_argument(
            "--progress",
            action="store_true",
            help="per-week heartbeat on stderr: weeks done, domain "
                 "throughput, cache hit rate, retries/fallbacks",
        )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress stderr diagnostics (stats lines and the --progress "
             "heartbeat); reports still print to stdout",
    )


def _note(args, message: str) -> None:
    """A stderr diagnostic line, silenced by ``--quiet``."""
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _obs_setup(args):
    """A :class:`repro.obs.Telemetry` when any obs output is requested."""
    if args.metrics_out is None and args.trace_out is None:
        return None
    from repro.obs import Telemetry

    return Telemetry()


def _obs_finish(args, telemetry) -> None:
    """Write ``--metrics-out`` / ``--trace-out`` from the finished run."""
    if telemetry is None:
        return
    from repro.obs.export import write_metrics, write_trace
    from repro.obs.metrics import global_registry

    # World-cache and snapshot metrics accumulate on the process-global
    # registry (repro.web.snapshot instruments acquire_world there);
    # fold them in so one file carries the whole run.
    telemetry.registry.merge(global_registry())
    if args.metrics_out is not None:
        write_metrics(args.metrics_out, telemetry.registry, telemetry.tracer)
        _note(args, f"metrics: {args.metrics_out}")
    if args.trace_out is not None:
        events = write_trace(args.trace_out, telemetry.tracer)
        _note(args, f"trace: {args.trace_out} ({events} events)")


def _build_world(args) -> "repro.World":
    config = WorldConfig(scale=args.scale, seed=args.seed)
    cache_dir = getattr(args, "world_cache", None)
    if cache_dir is None:
        # One-shot process, no cache to warm: skip the snapshot layer
        # (encoding the world would cost ~12% of the build for nothing).
        return repro.build_world(config)
    from repro.web.snapshot import acquire_world

    world, _source = acquire_world(config, cache_dir=cache_dir)
    return world


#: Accepted ``--week`` syntax: ISO week like ``2023-W15`` (case-tolerant).
_WEEK_RE = re.compile(r"(\d{4})-[Ww](\d{1,2})")


def _parse_week(text: str) -> Week:
    """argparse type for ``--week``: a validated ISO week.

    Raising :class:`argparse.ArgumentTypeError` makes argparse print a
    usage-style error and exit 2 — malformed weeks like ``2023-15`` or
    ``2023W15`` used to escape as a bare ``ValueError`` traceback.
    """
    match = _WEEK_RE.fullmatch(text.strip())
    if match is None:
        raise argparse.ArgumentTypeError(
            f"invalid week {text!r}: expected an ISO week like 2023-W15"
        )
    year, week = int(match.group(1)), int(match.group(2))
    if not 1 <= week <= 53:
        raise argparse.ArgumentTypeError(
            f"invalid week {text!r}: week number must be in 1..53"
        )
    return Week(year, week)


def _cmd_scan(args) -> int:
    plugins = _resolve_plugin_args(args)
    if plugins is None:
        return 2
    world = _build_world(args)
    week = args.week if args.week else world.config.reference_week
    telemetry = _obs_setup(args)
    stats = ScanPhaseStats() if telemetry is not None else None
    run = repro.run_weekly_scan(
        world,
        week,
        plugins=plugins,
        telemetry=telemetry,
        phase_stats=stats,
    )
    ipv6 = None
    if args.ipv6:
        # An explicit --week applies to both families; only the default
        # diverges (the paper's IPv6 measurement ran in a different
        # week than the IPv4 reference snapshot, §6.2).
        ipv6_week = args.week if args.week else world.config.ipv6_week
        ipv6 = repro.run_weekly_scan(
            world,
            ipv6_week,
            ip_version=6,
            populations=("cno",),
            plugins=tuple(n for n in plugins if n != "trace"),
            telemetry=telemetry,
            phase_stats=stats,
        )
    if telemetry is not None:
        stats.publish(telemetry.registry)
    print(reference_report(run, ipv6))
    _obs_finish(args, telemetry)
    return 0


def _cmd_campaign(args) -> int:
    if args.workers is None:
        pool_only = (
            ("--ticket-sites", args.ticket_sites),
            ("--shard-timeout", args.shard_timeout),
            ("--shard-retries", args.shard_retries),
        )
        for flag, value in pool_only:
            if value is not None:
                print(f"{flag} requires --workers", file=sys.stderr)
                return 2
    if args.resume and args.checkpoint_dir is None:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    plugins = _resolve_plugin_args(args)
    if plugins is None:
        return 2
    if args.checkpoint_dir is not None and "trace" in plugins:
        print("--checkpoint-dir cannot be combined with the trace plugin",
              file=sys.stderr)
        return 2
    world = _build_world(args)
    stats = ScanPhaseStats()
    telemetry = _obs_setup(args)
    progress = None
    if args.progress and not args.quiet:
        from repro.obs import CampaignProgress
        from repro.pipeline.campaign import campaign_weeks

        progress = CampaignProgress(len(campaign_weeks(world, args.cadence)))
    campaign = repro.run_campaign(
        world,
        cadence_weeks=args.cadence,
        plugins=plugins,
        workers=args.workers,
        ticket_sites=args.ticket_sites,
        exchange_cache=not args.no_exchange_cache,
        phase_stats=stats,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        shard_timeout=args.shard_timeout,
        max_shard_retries=args.shard_retries,
        telemetry=telemetry,
        progress=progress,
    )
    analysis_start = perf_counter()
    report = longitudinal_report(campaign)
    if telemetry is not None:
        # run_campaign published the scan phases; the report is timed here.
        telemetry.registry.gauge("campaign.phase.analysis_seconds").set(
            perf_counter() - analysis_start
        )
    print(report)
    attempts = stats.exchange_cache_hits + stats.exchange_cache_misses
    if attempts or stats.exchange_cache_uncacheable:
        _note(
            args,
            f"exchange cache: {stats.exchange_cache_hits} hits / "
            f"{stats.exchange_cache_misses} misses / "
            f"{stats.exchange_cache_uncacheable} uncacheable "
            f"({100 * stats.exchange_cache_hit_rate:.1f}% hit rate)",
        )
    if stats.shard_retries or stats.shard_timeouts or stats.shard_failures:
        _note(
            args,
            f"shard supervision: {stats.shard_retries} retries / "
            f"{stats.shard_timeouts} timeouts / "
            f"{stats.shard_failures} failures (run recovered; results "
            f"are identical to a clean run)",
        )
    _obs_finish(args, telemetry)
    return 0


def _cmd_distributed(args) -> int:
    world = _build_world(args)
    dist_v4 = repro.run_distributed(world, ip_version=4)
    dist_v6 = repro.run_distributed(world, ip_version=6) if args.ipv6 else None
    print(global_report(world, dist_v4, dist_v6))
    return 0


def _cmd_l4s(args) -> int:
    healthy = run_l4s_experiment(remark_classic=False, rounds=args.rounds)
    remarked = run_l4s_experiment(remark_classic=True, rounds=args.rounds)
    print(f"{'scenario':10s} {'classic':>9s} {'scalable':>9s} {'share':>7s}")
    for name, run in (("healthy", healthy), ("remarked", remarked)):
        print(
            f"{name:10s} {run.classic_delivered:9d} {run.scalable_delivered:9d} "
            f"{100 * run.classic_share:6.1f}%"
        )
    penalty = 1 - remarked.classic_delivered / max(1, healthy.classic_delivered)
    print(f"classic throughput penalty from re-marking: {100 * penalty:.0f} %")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'ECN with QUIC: Challenges in the Wild' (IMC '23)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    world_parent = _world_parent()

    scan = sub.add_parser(
        "scan", help="weekly scan; prints Tables 1-7", parents=[world_parent]
    )
    scan.add_argument(
        "--week",
        type=_parse_week,
        help="ISO week like 2023-W15 (applies to the IPv4 and, when "
             "given, the --ipv6 leg; defaults are the reference week "
             "and the IPv6 measurement week respectively)",
    )
    scan.add_argument("--ipv6", action="store_true", help="add the IPv6 run")
    _add_plugin_args(scan, default=("ecn", "trace"))
    _add_obs_args(scan, progress=False)
    scan.set_defaults(func=_cmd_scan)

    campaign = sub.add_parser(
        "campaign", help="longitudinal Figures 3/4/8", parents=[world_parent]
    )
    campaign.add_argument(
        "--cadence", type=_positive_int, default=12, help="weeks between scans"
    )
    _add_plugin_args(campaign, default=("ecn",))
    campaign.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="run the site phase on a persistent pool of N forked workers "
             "sharing one shared-memory world snapshot; weeks are "
             "prefetched as (site-range, week-range) tickets, so the "
             "whole campaign costs one dispatch round trip per worker; "
             "output is identical to the serial run (see "
             "docs/architecture.md#worker-pool--shared-world)",
    )
    campaign.add_argument(
        "--ticket-sites",
        type=_positive_int,
        default=None,
        metavar="M",
        help="sites per work ticket for --workers (default: site count / "
             "workers, i.e. one ticket per worker); smaller tickets "
             "rebalance faster after a worker crash at the cost of more "
             "dispatches",
    )
    campaign.add_argument(
        "--no-exchange-cache",
        action="store_true",
        help="run every site exchange fresh instead of replaying cached "
             "outcomes (the replay is byte-identical; this exists for "
             "timing comparisons and debugging)",
    )
    campaign.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        type=_directory,
        default=None,
        help="persist each completed week's results under DIR (atomic, "
             "checksummed; serial or --workers) so an interrupted "
             "campaign can --resume, with any executor, without "
             "recomputing finished weeks",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="rehydrate weeks already checkpointed under --checkpoint-dir; "
             "resumed campaigns are byte-identical to uninterrupted ones",
    )
    campaign.add_argument(
        "--shard-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-week deadline of one --workers ticket attempt "
             "(default 60; hung or crashed workers are retried, then "
             "re-executed inline)",
    )
    campaign.add_argument(
        "--shard-retries",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="pool re-dispatches per failed ticket before the inline "
             "fallback (default 2; requires --workers)",
    )
    _add_obs_args(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    distributed = sub.add_parser(
        "distributed", help="global Figure 7", parents=[world_parent]
    )
    distributed.add_argument("--ipv6", action="store_true")
    distributed.set_defaults(func=_cmd_distributed)

    l4s = sub.add_parser("l4s", help="§9.3 L4S re-marking experiment")
    l4s.add_argument("--rounds", type=_positive_int, default=200)
    l4s.set_defaults(func=_cmd_l4s)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
