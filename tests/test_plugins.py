"""Measurement-plugin framework: registry contracts and selection.

Two lines are held here.  First, the registry's validation contract:
names, fields and variants are checked at registration, variant kinds
are stable global properties, and a bad selection fails loudly (CLI
included — unknown plugin is a usage error, exit 2).  Second, the
selection contract: an explicit ``ecn`` selection resolves to the
default names and scans exactly like the default, serially and on the
shm pool at any worker count, on demand or from prefetched tickets.
Multi-plugin rows equal the serial oracle's under every executor,
through the exchange cache and the store: the canonical campaign of
``tests/differential.py`` runs ``ecn,grease,ebpf`` on every leg, and
checkpoints resume it, under another worker count too.  The reference loop's ``run_tracebox``
traces what the ``trace`` plugin does (the week matrix's ``objects``
leg).
"""

from __future__ import annotations

import pytest

import repro
from repro.analysis.report import plugin_summary
from repro.cli import main
from repro.obs import Telemetry
from repro.pipeline import ShmPoolScanEngine, run_campaign
from repro.plugins.base import (
    PLUGIN_KIND_BASE,
    FieldSpec,
    MeasurementPlugin,
    VariantSpec,
)
from repro.plugins.registry import (
    DEFAULT_PLUGINS,
    available,
    binding_for_kind,
    get_plugin,
    register,
    resolve_plugins,
    stream_tag,
    unregister,
)
from repro.store import codec
from repro.web.spec import WorldConfig

from tests.conftest import requires_fork
from tests.differential import (
    CAMPAIGN_WEEKS,
    assert_campaign_matches,
    assert_runs_equal,
    campaign_world,
    run_canonical_campaign,
)

SCALE = 20_000


def _build():
    return repro.build_world(WorldConfig(scale=SCALE))


# ----------------------------------------------------------------------
# Registry: validation, stable kinds, selection resolution
# ----------------------------------------------------------------------
def test_builtin_plugins_registered_in_fixed_order():
    assert available()[:4] == ("ecn", "grease", "trace", "ebpf")
    assert DEFAULT_PLUGINS == ("ecn",)


def test_variant_kinds_are_stable_and_resolvable():
    grease = get_plugin("grease")
    ebpf = get_plugin("ebpf")
    kinds = []
    for plugin in (grease, ebpf):
        for binding in resolve_plugins(("ecn", plugin.name)).bindings:
            assert binding.kind >= PLUGIN_KIND_BASE
            assert binding_for_kind(binding.kind) is binding
            assert stream_tag(binding.kind) == (
                f"{binding.plugin.name}/{binding.variant.name}"
            )
            kinds.append(binding.kind)
    assert len(set(kinds)) == len(kinds)
    with pytest.raises(ValueError, match="no registered plugin variant"):
        binding_for_kind(10_000)


def test_register_rejects_duplicate_name():
    class Dup(MeasurementPlugin):
        name = "ecn"

    with pytest.raises(ValueError, match="duplicate plugin name"):
        register(Dup())


def test_register_rejects_reserved_field_name():
    class Shadow(MeasurementPlugin):
        name = "shadowing"
        variants = (VariantSpec("v", "quic"),)
        fields = (FieldSpec("domain", "str"),)

    with pytest.raises(ValueError, match="collides with a core observation"):
        register(Shadow())
    assert "shadowing" not in available()


@pytest.mark.parametrize(
    "name,variants,fields,match",
    [
        ("Bad-Name", (), (), "invalid plugin name"),
        ("p1", (), (FieldSpec("x", "bool"),), "variants to fill"),
        ("p2", (VariantSpec("v", "quic"),), (FieldSpec("x", "complex"),),
         "unknown kind"),
        ("p3", (VariantSpec("v", "carrier-pigeon"),), (), "unknown transport"),
        ("p4", (VariantSpec("v", "quic"), VariantSpec("v", "quic")), (),
         "duplicate variant"),
        ("p5", (VariantSpec("v", "quic"),),
         (FieldSpec("x", "bool"), FieldSpec("x", "bool")), "duplicate field"),
    ],
)
def test_register_rejects_bad_declarations(name, variants, fields, match):
    plugin = MeasurementPlugin()
    plugin.name = name
    plugin.variants = variants
    plugin.fields = fields
    with pytest.raises(ValueError, match=match):
        register(plugin)


def test_register_and_unregister_roundtrip():
    class Toy(MeasurementPlugin):
        name = "toy_plugin"
        variants = (VariantSpec("probe", "quic"),)
        fields = (FieldSpec("seen", "bool"),)

    register(Toy())
    try:
        assert "toy_plugin" in available()
        selection = resolve_plugins(("ecn", "toy_plugin"))
        assert selection.names == ("ecn", "toy_plugin")
        assert len(selection.bindings) == 1
        assert selection.bindings[0].kind >= PLUGIN_KIND_BASE
    finally:
        unregister("toy_plugin")
    assert "toy_plugin" not in available()
    with pytest.raises(ValueError, match="unknown measurement plugin"):
        resolve_plugins(("ecn", "toy_plugin"))


def test_resolve_rejects_unknown_and_requires_ecn():
    with pytest.raises(ValueError, match="unknown measurement plugin 'bogus'"):
        resolve_plugins(("ecn", "bogus"))
    with pytest.raises(ValueError, match="'ecn' plugin must be part"):
        resolve_plugins(("grease",))


def test_resolve_dedups_and_preserves_order():
    selection = resolve_plugins(("ecn", "grease", "ecn", "grease"))
    assert selection.names == ("ecn", "grease")
    assert resolve_plugins(None).names == DEFAULT_PLUGINS


def test_explicit_ecn_selection_resolves_to_the_default():
    explicit = resolve_plugins(("ecn",))
    assert explicit.names == resolve_plugins(None).names == DEFAULT_PLUGINS
    assert explicit.bindings == resolve_plugins(None).bindings == ()


@pytest.fixture(scope="module")
def default_tcp_run():
    """The default selection's TCP+QUIC reference-week run: the golden
    reference for explicit ``ecn`` selections."""
    world = _build()
    return world, world.scan_engine().run_week(world.config.reference_week, include_tcp=True)


def _assert_is_default_scan(default_tcp_run, world, run, leg):
    world_ref, reference = default_tcp_run
    assert_runs_equal(reference, run, leg=leg)
    assert run.plugin_rows == {}
    assert world_ref.clock.now == world.clock.now


def test_explicit_ecn_selection_is_the_default_scan(default_tcp_run):
    """``plugins=("ecn",)`` scans exactly like the default selection."""
    world = _build()
    run = world.scan_engine().run_week(
        world.config.reference_week, include_tcp=True, plugins=("ecn",)
    )
    _assert_is_default_scan(default_tcp_run, world, run, 'plugins=("ecn",)')


@requires_fork
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_ecn_plugin_byte_identical_sharded(default_tcp_run, shards):
    """On demand, one site range per worker ("shard")."""
    world = _build()
    with ShmPoolScanEngine(world, workers=shards) as engine:
        run = engine.run_week(world.config.reference_week, plugins=("ecn",), include_tcp=True)
    _assert_is_default_scan(default_tcp_run, world, run, f"pool-{shards}")


@requires_fork
@pytest.mark.parametrize("ticket_sites", [None, 16], ids=["fork-pool", "shm-pool"])
def test_ecn_plugin_byte_identical_fork_executors(default_tcp_run, ticket_sites):
    """The prefetched-ticket path (what campaigns use) is byte-identical
    too, with one site range per forked worker (what the removed
    fork-pool executor dispatched) or many small tickets."""
    world = _build()
    week = world.config.reference_week
    with ShmPoolScanEngine(world, workers=2, ticket_sites=ticket_sites) as engine:
        assert engine.prefetch_weeks([week], plugins=("ecn",), include_tcp=True)
        run = engine.run_week(week, plugins=("ecn",), include_tcp=True)
    _assert_is_default_scan(default_tcp_run, world, run, f"prefetched, tickets {ticket_sites}")


# ----------------------------------------------------------------------
# Multi-plugin runs: identical rows under every executor
# ----------------------------------------------------------------------
def test_multi_plugin_rows_have_declared_width(campaign_legs):
    """The canonical campaign runs ``ecn,grease,ebpf``: every week has
    rows for both plugins, each as wide as declared."""
    for run in campaign_legs.oracle.runs:
        assert set(run.plugin_rows) == {"grease", "ebpf"}
        for name, rows in run.plugin_rows.items():
            assert rows, f"{run.label}: no {name} rows"
            width = len(get_plugin(name).fields)
            assert all(len(row) == width for row in rows.values())


@requires_fork
def test_multi_plugin_shm_pool_matches_serial(campaign_legs):
    """Plugin rows merge across workers and ticket boundaries, and
    through the inline fallback, to the serial rows (the rest of each
    run is held equal in ``tests/test_shm_pool.py``)."""
    expected = [run.plugin_rows for run in campaign_legs.oracle.runs]
    for leg in campaign_legs.pool_legs():
        assert [run.plugin_rows for run in leg.runs] == expected, leg.name


PLUGINS = ("ecn", "grease", "ebpf")


@pytest.fixture(scope="module")
def multi_plugin_tcp_run():
    """Serial TCP+QUIC week with grease + ebpf: the campaign has no TCP
    leg, so core TCP events and the plugins' variant events of one site
    share tickets only here."""
    world = _build()
    run = world.scan_engine().run_week(
        world.config.reference_week, include_tcp=True, plugins=PLUGINS
    )
    assert run.plugin_rows["grease"] and run.plugin_rows["ebpf"]
    return world, run


def _assert_multi_plugin_pool_matches(multi_plugin_tcp_run, leg, **engine_kwargs):
    world_ref, reference = multi_plugin_tcp_run
    world = _build()
    with ShmPoolScanEngine(world, **engine_kwargs) as engine:
        run = engine.run_week(world.config.reference_week, include_tcp=True, plugins=PLUGINS)
    assert_runs_equal(reference, run, leg=leg)
    assert world_ref.clock.now == world.clock.now


@requires_fork
@pytest.mark.parametrize("shards", [2, 4])
def test_multi_plugin_sharded_matches_serial(multi_plugin_tcp_run, shards):
    _assert_multi_plugin_pool_matches(
        multi_plugin_tcp_run, f"pool-{shards}, TCP", workers=shards
    )


@requires_fork
def test_multi_plugin_rows_with_tcp_match_serial_on_small_tickets(multi_plugin_tcp_run):
    _assert_multi_plugin_pool_matches(
        multi_plugin_tcp_run, "pool, small tickets, TCP", workers=3, ticket_sites=5
    )


def test_run_tracebox_alias_selects_trace_plugin(week_matrix):
    """The reference loop's ``run_tracebox`` traces what the ``trace``
    plugin does: the week matrix's traced family, objects vs engine."""
    objects = week_matrix["objects"]
    traced = [
        (run, reference)
        for run, reference in zip(week_matrix.oracle.runs, objects.runs, strict=True)
        if run.label.endswith(" v4")
    ]
    assert traced and all(run.traces for run, _ in traced)
    for run, reference in traced:
        assert run.traces == reference.traces, run.label


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def test_plugin_summary_in_report():
    world = _build()
    run = repro.run_weekly_scan(
        world, world.config.reference_week, plugins=("ecn", "grease")
    )
    summary = plugin_summary(run)
    assert "grease:" in summary
    assert "greased_sent" in summary
    from repro.analysis.report import reference_report

    assert "Plugin measurements" in reference_report(run)


def test_default_run_has_no_plugin_section():
    world = _build()
    run = repro.run_weekly_scan(world, world.config.reference_week)
    assert run.plugin_rows == {}
    assert plugin_summary(run) == ""


# ----------------------------------------------------------------------
# Campaigns: checkpoint keys, trace incompatibility
# ----------------------------------------------------------------------
def _weeks(world):
    start = world.config.start_week
    return [start, start + 6, world.config.reference_week]


@requires_fork
def test_campaign_plugins_checkpoint_resume(tmp_path, campaign_legs):
    """Plugin rows checkpointed by a 1-worker pool resume under 2
    workers: every week rehydrates with its rows."""
    world = campaign_world()
    run_canonical_campaign(world, workers=1, checkpoint_dir=tmp_path)
    resumed_world = campaign_world()
    telemetry = Telemetry()
    resumed = run_canonical_campaign(
        resumed_world, workers=2, checkpoint_dir=tmp_path, resume=True, telemetry=telemetry
    )
    resumed_weeks = telemetry.registry.counter("campaign.checkpoint.weeks_resumed").value
    assert resumed_weeks == len(CAMPAIGN_WEEKS)
    assert all(run.plugin_rows["grease"] for run in resumed.runs)
    assert_campaign_matches(
        campaign_legs.oracle, resumed_world, resumed, leg="resumed plugin campaign"
    )


def test_campaign_checkpoint_key_depends_on_plugins(tmp_path):
    """A grease-plugin campaign must never resume from ecn-only files."""
    from repro.pipeline.checkpoint import campaign_checkpoint_key

    world = _build()
    base = campaign_checkpoint_key(
        world, vantage_id="main-aachen", populations=("cno",)
    )
    explicit = campaign_checkpoint_key(
        world, vantage_id="main-aachen", populations=("cno",), plugins=("ecn",)
    )
    multi = campaign_checkpoint_key(
        world,
        vantage_id="main-aachen",
        populations=("cno",),
        plugins=("ecn", "grease"),
    )
    assert base == explicit
    assert multi != base


def test_campaign_rejects_trace_plugin_with_checkpoints(tmp_path):
    world = _build()
    with pytest.raises(ValueError, match="trace plugin"):
        run_campaign(
            world,
            weeks=_weeks(world),
            plugins=("ecn", "trace"),
            workers=1,
            checkpoint_dir=tmp_path,
        )


# ----------------------------------------------------------------------
# Codec: plugin rows through the shard result frame
# ----------------------------------------------------------------------
def test_codec_roundtrips_plugin_rows():
    entries = [
        (0, 0, None, 0.25),
        (3, PLUGIN_KIND_BASE, (True, 7, None), 0.5),
        (5, PLUGIN_KIND_BASE + 1, (False, -12, 3.75, "ect0", None), 1.0),
        (9, PLUGIN_KIND_BASE, (None, 0, 0.0), 0.0),
    ]
    decoded = codec.decode_shard_results(codec.encode_shard_results(entries))
    assert decoded == entries


def test_codec_rejects_unknown_row_value_type():
    with pytest.raises(TypeError):
        codec.encode_shard_results([(0, PLUGIN_KIND_BASE, (object(),), 0.0)])


# ----------------------------------------------------------------------
# CLI: selection flags and usage errors
# ----------------------------------------------------------------------
def test_cli_scan_with_plugins(capsys):
    code = main(["scan", "--scale", "20000", "--plugins", "ecn,grease"])
    assert code == 0
    captured = capsys.readouterr()
    assert "Plugin measurements" in captured.out
    assert "Table 4" not in captured.out  # no 'trace' plugin, no tracebox table


def test_cli_scan_auto_prepends_ecn(capsys):
    code = main(["scan", "--scale", "20000", "--plugins", "grease"])
    assert code == 0
    assert "Plugin measurements" in capsys.readouterr().out


def test_cli_scan_unknown_plugin_is_usage_error(capsys):
    code = main(["scan", "--scale", "20000", "--plugins", "bogus"])
    assert code == 2
    assert "unknown measurement plugin 'bogus'" in capsys.readouterr().err


def test_cli_campaign_unknown_plugin_is_usage_error(capsys):
    code = main(["campaign", "--scale", "20000", "--plugins", "ecn,nope"])
    assert code == 2
    assert "unknown measurement plugin 'nope'" in capsys.readouterr().err

