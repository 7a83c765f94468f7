"""Differential harness: every execution path against one serial oracle.

The paper scans each IP once and gives that result to every domain on
the IP (§4.4), and every execution path here rests on that: the serial
engine with and without the exchange replay cache, a world rehydrated
from its snapshot, an instrumented run, the shm pool at any worker
count, the pool's inline fallback and the per-domain reference loop.
Each must produce exactly what the serial engine does.

This module computes each path (a *leg*) of two configurations at most
once per test session (the ``campaign_legs`` and ``week_matrix``
fixtures in ``tests/conftest.py``):

* **The canonical campaign**: three weeks of ``cno`` at
  :data:`CAMPAIGN_SCALE` from ``main-aachen`` with the ``grease`` and
  ``ebpf`` plugins, so plugin rows travel every path.  Named legs: the
  serial engine with its replay cache (the oracle), the serial engine
  with ``exchange_cache=False``, a rehydrated world and an instrumented
  caller-built 2-worker pool.  Pool legs (:meth:`CampaignLegs.pool`)
  are keyed by their shape: worker count, cache-free workers, the
  pool's inline-fallback path (:func:`pool_path_kwargs`) and a
  rehydrated parent world; modules that ask for the same shape
  share one leg.
* **The week matrix**: every vantage x {v4+TCP with CE probing at the
  TCP week, v4 with tracebox and the toplists at the reference week,
  v6 at the IPv6 week} at :data:`MATRIX_SCALE`, driven case by case in
  one fixed order.  Legs: the serial engine with its cache (the
  oracle), without it, the reference loop's eager objects, a rehydrated
  world and one warm 2-worker pool.

Every leg records, per run, every :class:`DomainObservation` field of
every domain, the site records, the traces and the plugin rows; per leg
it records the exact world clock and the rendered report (Figures
3/4/8 for the campaign, Tables 1-7 per vantage for the matrix).  A leg
built from a fresh world of the same config must equal its oracle
under plain ``==`` everywhere (the clock as an exact float: summing
elapsed times in another order moves its last bits).
:func:`assert_legs_equal` checks that and names the leg, the run, the
component and the first differing domain; :func:`assert_runs_equal`
does it for one run (``tests/test_differential.py`` pins the
messages).

Each feature's test module asserts its legs: ``uncached`` in
``test_exchange_golden``, ``objects`` in ``test_store_golden``,
``rehydrated`` in ``test_world_snapshot``, the pool legs in
``test_shm_pool`` (plugin rows again in ``test_plugins``),
``instrumented`` in ``test_obs_spans``.  Tests that run their own
campaign (kill-and-resume, checkpoints, faults, spans) run the
canonical one through :func:`run_canonical_campaign` or
:func:`run_canonical_weeks` and compare it with
:func:`assert_campaign_matches`.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import operator
from dataclasses import dataclass
from typing import Callable

import pytest

import repro
from repro.analysis.report import longitudinal_report, reference_report
from repro.core.codepoints import ECN
from repro.faults import FaultPlan
from repro.obs import Telemetry
from repro.pipeline import Campaign, ShmPoolScanEngine, run_campaign
from repro.pipeline.engine import ScanEngine, ScanPhaseStats
from repro.pipeline.runs import run_weekly_scan_reference
from repro.scanner.quic_scan import QuicScanConfig
from repro.scanner.results import DomainObservation
from repro.store.views import StoreWeeklyRun
from repro.web import snapshot
from repro.web.spec import WorldConfig

#: The canonical campaign's world: about 15.5 k domains on 834 sites,
#: under a second per leg.
CAMPAIGN_SCALE = 12_000
#: The week matrix's world: 17 vantages x 3 families of runs.
MATRIX_SCALE = 40_000

CAMPAIGN_PLUGINS = ("ecn", "grease", "ebpf")
_CAMPAIGN_CONFIG = WorldConfig(scale=CAMPAIGN_SCALE)
#: First, middle and last weeks of the measurement period.
CAMPAIGN_WEEKS = (
    _CAMPAIGN_CONFIG.start_week,
    _CAMPAIGN_CONFIG.start_week + 8,
    _CAMPAIGN_CONFIG.reference_week,
)

OBSERVATION_FIELDS = tuple(f.name for f in dataclasses.fields(DomainObservation))
_observation_values = operator.attrgetter(*OBSERVATION_FIELDS)
_DOMAIN = OBSERVATION_FIELDS.index("domain")
_SITE_INDEX = OBSERVATION_FIELDS.index("site_index")

#: Platform gate for the pool.  Tests that fork its worker processes
#: skip with a reason instead of erroring on platforms without fork.
FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()
requires_fork = pytest.mark.skipif(
    not FORK_AVAILABLE,
    reason="shm-pool executors need the fork start method (POSIX)",
)

#: Worker counts of the canonical campaign's clean pool legs, one
#: ticket per worker; 3 keeps an odd split, harvested in any order.
POOL_SHAPES = (1, 2, 4, 3)


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunRecord:
    """What one run produced, as plain values compared with ``==``."""

    label: str
    #: One tuple per DomainObservation field (in field order) holding
    #: that field's value for every domain, in observation order;
    #: column-wise because it takes ~40 % less memory than a tuple per
    #: domain, and the harness keeps every leg's records for a session.
    columns: tuple[tuple, ...]
    #: Site index -> (ip, quic result, tcp result).
    site_records: dict[int, tuple]
    traces: dict
    plugin_rows: dict


@dataclass
class Leg:
    """One execution path's recorded runs, final world clock and report."""

    name: str
    runs: list[RunRecord]
    clock: float
    report: str
    #: Phase stats (campaign legs): cache and supervision counters.
    stats: ScanPhaseStats | None = None
    telemetry: Telemetry | None = None
    #: ``(hits, misses, uncacheable)`` of a cached serial matrix leg.
    cache_stats: tuple[int, int, int] | None = None
    #: Supervision snapshot of the matrix pool after its last run.
    supervision: tuple[int, int, int, int] | None = None
    #: Every run was served by the columnar store (not eager objects).
    store_backed: bool = False


def _run_label(run) -> str:
    return f"{run.week} {run.vantage_id} v{run.ip_version}"


def record_run(run, label: str | None = None) -> RunRecord:
    rows = [_observation_values(obs) for obs in run.observations]
    return RunRecord(
        label=label or _run_label(run),
        columns=tuple(zip(*rows, strict=True)) if rows else ((),) * len(OBSERVATION_FIELDS),
        site_records={
            index: (record.ip, record.quic, record.tcp)
            for index, record in run.site_records.items()
        },
        traces=dict(run.traces),
        plugin_rows={name: dict(by_site) for name, by_site in run.plugin_rows.items()},
    )


def _store_backed(runs) -> bool:
    return all(isinstance(run, StoreWeeklyRun) for run in runs)


def record_campaign(name: str, world, result, **extra) -> Leg:
    """Record a finished campaign ``result`` that ran on ``world``."""
    return Leg(
        name=name,
        runs=[record_run(run) for run in result.runs],
        clock=world.clock.now,
        report=longitudinal_report(result),
        store_backed=_store_backed(result.runs),
        **extra,
    )


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _first_domain_on_site(record: RunRecord, site_index: int) -> str:
    sites = record.columns[_SITE_INDEX]
    return record.columns[_DOMAIN][sites.index(site_index)] if site_index in sites else "<none>"


def _observation_difference(expected: RunRecord, actual: RunRecord) -> str:
    exp_domains, act_domains = expected.columns[_DOMAIN], actual.columns[_DOMAIN]
    if len(exp_domains) != len(act_domains):
        shorter = min(len(exp_domains), len(act_domains))
        longer = exp_domains if len(exp_domains) > shorter else act_domains
        return (
            f"observation count {len(act_domains)} != expected {len(exp_domains)}; "
            f"first unmatched domain {longer[shorter]}"
        )
    # The earliest domain any field differs at, and the first such field.
    first = None
    for name, exp_column, act_column in zip(
        OBSERVATION_FIELDS, expected.columns, actual.columns, strict=True
    ):
        if exp_column != act_column:
            index = next(
                i
                for i, (exp, act) in enumerate(zip(exp_column, act_column, strict=True))
                if exp != act
            )
            if first is None or index < first[0]:
                first = (index, name, exp_column[index], act_column[index])
    index, name, exp_value, act_value = first
    return (
        f"observation field {name!r} differs at domain {exp_domains[index]}: "
        f"expected {exp_value!r}, got {act_value!r}"
    )


def _keyed_difference(component: str, expected: dict, actual: dict, record: RunRecord) -> str:
    for key in [*expected, *(key for key in actual if key not in expected)]:
        exp_value, act_value = expected.get(key), actual.get(key)
        if key not in actual or key not in expected or exp_value != act_value:
            return (
                f"{component} differ at site {key} (first domain "
                f"{_first_domain_on_site(record, key)}): expected {exp_value!r}, "
                f"got {act_value!r}"
            )
    return f"{component} differ"


def _run_difference(expected: RunRecord, actual: RunRecord) -> str | None:
    if expected.columns != actual.columns:
        return _observation_difference(expected, actual)
    for component in ("site_records", "traces"):
        exp, act = getattr(expected, component), getattr(actual, component)
        if exp != act:
            return _keyed_difference(component.replace("_", " "), exp, act, expected)
    if expected.plugin_rows != actual.plugin_rows:
        for name in sorted({*expected.plugin_rows, *actual.plugin_rows}):
            exp = expected.plugin_rows.get(name, {})
            act = actual.plugin_rows.get(name, {})
            if exp != act:
                return _keyed_difference(f"plugin {name!r} rows", exp, act, expected)
    return None


def assert_runs_equal(expected, actual, *, leg: str = "actual", run: str | None = None) -> None:
    """Fail unless two runs (objects or :class:`RunRecord`) agree on
    every observation field, site record, trace and plugin row."""
    if not isinstance(expected, RunRecord):
        expected = record_run(expected)
    if not isinstance(actual, RunRecord):
        actual = record_run(actual)
    difference = _run_difference(expected, actual)
    if difference is not None:
        raise AssertionError(f"leg {leg!r}, run {run or expected.label}: {difference}")


def assert_legs_equal(oracle: Leg, leg: Leg) -> None:
    """Fail unless ``leg`` recorded exactly what ``oracle`` did: every
    run, the world clock (bit for bit) and the rendered report."""
    labels = [run.label for run in leg.runs]
    expected_labels = [run.label for run in oracle.runs]
    if labels != expected_labels:
        raise AssertionError(f"leg {leg.name!r}: runs {labels} != oracle's {expected_labels}")
    for expected, actual in zip(oracle.runs, leg.runs, strict=True):
        assert_runs_equal(expected, actual, leg=leg.name, run=expected.label)
    if leg.clock != oracle.clock:
        raise AssertionError(
            f"leg {leg.name!r}: world clock {leg.clock!r} ({leg.clock.hex()}) != "
            f"oracle's {oracle.clock!r} ({oracle.clock.hex()})"
        )
    if leg.report != oracle.report:
        for number, (exp, act) in enumerate(
            zip(oracle.report.splitlines(), leg.report.splitlines(), strict=False), start=1
        ):
            if exp != act:
                break
        else:
            number, exp, act = "end", "<longer report>", "<shorter report>"
        raise AssertionError(
            f"leg {leg.name!r}: rendered report differs at line {number}: "
            f"expected {exp!r}, got {act!r}"
        )


# ----------------------------------------------------------------------
# Sessions: each leg computed at most once
# ----------------------------------------------------------------------
class Differential:
    """The legs of one configuration, each computed on first use."""

    def __init__(self, builders: dict[str, Callable[[], Leg]]):
        self._builders = builders
        self._legs: dict[str, Leg] = {}

    def __getitem__(self, name: str) -> Leg:
        return self._leg(name, self._builders[name])

    def _leg(self, name: str, build: Callable[[], Leg]) -> Leg:
        if name not in self._legs:
            self._legs[name] = build()
        return self._legs[name]

    @property
    def oracle(self) -> Leg:
        return self["oracle"]


def rehydrated(world):
    """The same world after world -> snapshot buffer -> world."""
    return snapshot.decode_world(snapshot.encode_world(world))


def pool_path_kwargs(path, plan=None):
    """``run_campaign`` kwargs that route every shm-pool ticket down ``path``.

    A pool ticket's results reach the parent one of two ways: computed
    in a forked worker (``"process"``), or re-executed inline in the
    parent by the supervision fallback (``"inline"``).  The inline path
    is forced by corrupting every worker result buffer and allowing no
    re-dispatch.  ``plan`` carries the caller's other fault rules; it is
    extended in place.
    """
    if path == "process":
        return {"fault_plan": plan} if plan is not None else {}
    if path != "inline":
        raise ValueError(f"unknown pool path: {path!r}")
    plan = plan if plan is not None else FaultPlan(seed=3)
    plan.corrupt_shard_buffer(attempt=None)
    return {"fault_plan": plan, "max_shard_retries": 0}


# ----------------------------------------------------------------------
# The canonical campaign
# ----------------------------------------------------------------------
def campaign_world():
    return repro.build_world(_CAMPAIGN_CONFIG)


def run_canonical_campaign(world, **kwargs):
    """The canonical campaign on ``world``; ``kwargs`` pick the executor,
    checkpoints, faults or telemetry."""
    return run_campaign(
        world, weeks=list(CAMPAIGN_WEEKS), plugins=CAMPAIGN_PLUGINS, **kwargs
    )


def run_canonical_weeks(engine, **kwargs):
    """The canonical campaign driven week by week through
    ``engine.run_week``: a pool engine then dispatches one-week tickets
    on demand instead of prefetching the campaign's tickets."""
    campaign = Campaign()
    for week in CAMPAIGN_WEEKS:
        campaign.add_run(
            engine.run_week(week, populations=("cno",), plugins=CAMPAIGN_PLUGINS, **kwargs)
        )
    return campaign


def assert_campaign_matches(oracle: Leg, world, campaign, *, leg: str) -> None:
    """Fail unless a canonical campaign run on ``world`` equals the oracle."""
    assert_legs_equal(oracle, record_campaign(leg, world, campaign))


def _campaign_leg(name, world=None, **kwargs) -> Leg:
    world = world if world is not None else campaign_world()
    stats = ScanPhaseStats()
    campaign = run_canonical_campaign(world, phase_stats=stats, **kwargs)
    return record_campaign(
        name,
        world,
        campaign,
        stats=stats,
        telemetry=kwargs.get("telemetry"),
    )


def _instrumented_leg() -> Leg:
    """Telemetry on a caller-built 2-worker pool (``run_campaign(engine=)``
    swaps its tracer in and out; the span fault tests cover pools that
    ``run_campaign`` builds itself)."""
    world = campaign_world()
    with ShmPoolScanEngine(world, workers=2) as engine:
        return _campaign_leg("instrumented", world, engine=engine, telemetry=Telemetry())


class CampaignLegs(Differential):
    """The canonical campaign's named legs plus its pool legs."""

    def pool(
        self,
        workers: int,
        *,
        path: str = "process",
        exchange_cache: bool = True,
        rehydrate: bool = False,
    ) -> Leg:
        """The canonical campaign on a pool that ``run_campaign`` builds:
        ``workers`` workers with or without exchange caches, every
        ticket computed down ``path``, on a fresh or a rehydrated parent
        world."""
        name = "-".join(
            part
            for part in (
                f"pool-{workers}",
                not exchange_cache and "uncached",
                path != "process" and path,
                rehydrate and "rehydrated",
            )
            if part
        )

        def build() -> Leg:
            world = rehydrated(campaign_world()) if rehydrate else campaign_world()
            return _campaign_leg(
                name,
                world,
                workers=workers,
                exchange_cache=exchange_cache,
                **pool_path_kwargs(path),
            )

        return self._leg(name, build)

    def pool_legs(self) -> list[Leg]:
        """The instrumented pool and every shape the harness defines
        for a fresh world: :data:`POOL_SHAPES`, cache-free workers and
        the inline fallback."""
        return [
            self["instrumented"],
            *(self.pool(workers) for workers in POOL_SHAPES),
            self.pool(2, exchange_cache=False),
            self.pool(2, path="inline"),
        ]


def campaign_legs() -> CampaignLegs:
    return CampaignLegs(
        {
            "oracle": lambda: _campaign_leg("oracle"),
            "uncached": lambda: _campaign_leg("uncached", exchange_cache=False),
            "rehydrated": lambda: _campaign_leg("rehydrated", rehydrated(campaign_world())),
            "instrumented": _instrumented_leg,
        }
    )


# ----------------------------------------------------------------------
# The week matrix
# ----------------------------------------------------------------------
#: (label, the config's week for it, scan kwargs): the paper's three
#: scan setups.  ``trace`` selects tracebox (the ``trace`` plugin, or
#: the reference loop's flag); the v4 family is the reference scan of
#: both populations, so its plan has toplist segments too.
MATRIX_FAMILIES = (
    (
        "v4+TCP",
        operator.attrgetter("tcp_week"),
        {
            "populations": ("cno",),
            "include_tcp": True,
            "quic_config": QuicScanConfig(probe_codepoint=ECN.CE),
        },
    ),
    (
        "v4",
        operator.attrgetter("reference_week"),
        {"populations": ("cno", "toplist"), "trace": True},
    ),
    ("v6", operator.attrgetter("ipv6_week"), {"populations": ("cno",), "ip_version": 6}),
)


def matrix_world():
    return repro.build_world(WorldConfig(scale=MATRIX_SCALE))


def _engine_scan(engine):
    def scan(week, vantage_id, *, trace=False, **kwargs):
        return engine.run_week(
            week, vantage_id, plugins=("ecn", "trace") if trace else None, **kwargs
        )

    return scan


def _reference_scan(world):
    def scan(week, vantage_id, *, trace=False, **kwargs):
        return run_weekly_scan_reference(world, week, vantage_id, run_tracebox=trace, **kwargs)

    return scan


def _matrix_leg(name, world, scan) -> Leg:
    """Every vantage x family on ``world``; the report renders Tables
    1-7 per vantage from its v4 (tracebox) and v6 runs."""
    records, reports, store_backed = [], [], True
    for vantage_id in sorted(world.vantages):
        runs = {}
        for family, week_of, kwargs in MATRIX_FAMILIES:
            run = scan(week_of(world.config), vantage_id, **kwargs)
            records.append(record_run(run, f"{vantage_id} {family}"))
            runs[family] = run
        store_backed = store_backed and _store_backed(runs.values())
        reports.append(f"[{vantage_id}]\n{reference_report(runs['v4'], runs['v6'])}")
    return Leg(name, records, world.clock.now, "\n".join(reports), store_backed=store_backed)


def _matrix_serial(name, world, engine=None) -> Leg:
    engine = engine if engine is not None else world.scan_engine()
    leg = _matrix_leg(name, world, _engine_scan(engine))
    if engine.exchange_cache is not None:
        leg.cache_stats = engine.exchange_cache.stats.snapshot()
    return leg


def _matrix_uncached() -> Leg:
    world = matrix_world()
    return _matrix_serial("uncached", world, ScanEngine(world, exchange_cache=False))


def _matrix_objects() -> Leg:
    world = matrix_world()
    return _matrix_leg("objects", world, _reference_scan(world))


def _matrix_pool() -> Leg:
    world = matrix_world()
    with ShmPoolScanEngine(world, workers=2) as engine:
        leg = _matrix_leg("pool-2", world, _engine_scan(engine))
        leg.supervision = engine.supervision.snapshot()
    return leg


def week_matrix() -> Differential:
    return Differential(
        {
            "oracle": lambda: _matrix_serial("oracle", matrix_world()),
            "uncached": _matrix_uncached,
            "objects": _matrix_objects,
            "rehydrated": lambda: _matrix_serial("rehydrated", rehydrated(matrix_world())),
            "pool-2": _matrix_pool,
        }
    )
