"""Measurement-plugin framework: registry contracts, golden equivalence.

Two lines are held here.  First, the registry's validation contract:
names, fields and variants are checked at registration, variant kinds
are stable global properties, and a bad selection fails loudly (CLI
included — unknown plugin is a usage error, exit 2).  Second, the
engine contract: selecting the default ``ecn`` plugin explicitly is
**byte-identical** to the pre-plugin engine across vantages, address
families, the TCP leg, the serial engine and shm-pool worker counts;
and multi-plugin selections produce identical rows under both
executors, flow through the exchange cache, checkpoint/resume, the
columnar store and the report unchanged.
"""

from __future__ import annotations

import pytest

import repro
from repro.analysis.report import plugin_summary
from repro.cli import main
from repro.pipeline import ShmPoolScanEngine, run_campaign
from repro.pipeline.runs import run_weekly_scan_reference
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
from tests.test_pipeline_sharding import _assert_runs_equal

SCALE = 6_000


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


# ----------------------------------------------------------------------
# Golden matrix: explicit ecn plugin == default engine, byte-identical
# ----------------------------------------------------------------------
def test_ecn_plugin_byte_identical_serial_matrix():
    """Vantages x v4/v6 x TCP leg: plugins=("ecn",) is the default scan."""
    world_ref, world = _build(), _build()
    week = world_ref.config.reference_week
    for vantage in world_ref.vantage_list:
        for ip_version in (4, 6):
            for include_tcp in (False, True):
                kwargs = dict(
                    ip_version=ip_version,
                    populations=("cno",),
                    include_tcp=include_tcp,
                )
                reference = world_ref.scan_engine().run_week(
                    week, vantage.vantage_id, **kwargs
                )
                run = world.scan_engine().run_week(
                    week, vantage.vantage_id, plugins=("ecn",), **kwargs
                )
                _assert_runs_equal(reference, run)
                assert run.plugin_rows == {}
    assert world_ref.clock.now == world.clock.now


@requires_fork
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_ecn_plugin_byte_identical_sharded(shards):
    world_ref, world = _build(), _build()
    week = world_ref.config.reference_week
    reference = world_ref.scan_engine().run_week(
        week, include_tcp=True
    )
    with ShmPoolScanEngine(world, workers=shards) as engine:
        run = engine.run_week(week, plugins=("ecn",), include_tcp=True)
    _assert_runs_equal(reference, run)
    assert world_ref.clock.now == world.clock.now


@requires_fork
@pytest.mark.parametrize(
    "engine_factory",
    [
        lambda world: ShmPoolScanEngine(world, workers=2),
        lambda world: ShmPoolScanEngine(world, workers=2, ticket_sites=16),
    ],
    ids=["fork-pool", "shm-pool"],
)
def test_ecn_plugin_byte_identical_fork_executors(engine_factory):
    """The prefetched-ticket path (what campaigns use) is byte-identical
    too, with one site range per forked worker or many small tickets."""
    world_ref, world = _build(), _build()
    week = world_ref.config.reference_week
    reference = world_ref.scan_engine().run_week(
        week, include_tcp=True
    )
    with engine_factory(world) as engine:
        assert engine.prefetch_weeks([week], plugins=("ecn",), include_tcp=True)
        run = engine.run_week(week, plugins=("ecn",), include_tcp=True)
    _assert_runs_equal(reference, run)
    assert world_ref.clock.now == world.clock.now


# ----------------------------------------------------------------------
# Multi-plugin runs: identical rows under both executors
# ----------------------------------------------------------------------
PLUGINS = ("ecn", "grease", "ebpf")


def _assert_plugin_rows_equal(expected, actual):
    assert expected.plugin_rows.keys() == actual.plugin_rows.keys()
    for name, rows in expected.plugin_rows.items():
        assert rows == actual.plugin_rows[name], f"plugin {name!r} diverged"


@pytest.fixture(scope="module")
def multi_plugin_reference():
    """Serial per-site run with grease + ebpf — the golden reference."""
    world = _build()
    run = world.scan_engine().run_week(
        world.config.reference_week,
        include_tcp=True,
        plugins=PLUGINS,
    )
    assert set(run.plugin_rows) == {"grease", "ebpf"}
    assert run.plugin_rows["grease"]
    assert run.plugin_rows["ebpf"]
    return world, run


def test_multi_plugin_rows_have_declared_width(multi_plugin_reference):
    _, reference = multi_plugin_reference
    for name, rows in reference.plugin_rows.items():
        width = len(get_plugin(name).fields)
        assert all(len(row) == width for row in rows.values())


@requires_fork
@pytest.mark.parametrize("shards", [2, 4])
def test_multi_plugin_sharded_matches_serial(multi_plugin_reference, shards):
    world_ref, reference = multi_plugin_reference
    world = _build()
    with ShmPoolScanEngine(world, workers=shards) as engine:
        run = engine.run_week(
            world.config.reference_week, include_tcp=True, plugins=PLUGINS
        )
    _assert_runs_equal(reference, run)
    _assert_plugin_rows_equal(reference, run)
    assert world_ref.clock.now == world.clock.now


@requires_fork
def test_multi_plugin_shm_pool_matches_serial(multi_plugin_reference):
    """Many small tickets: plugin rows merge across ticket boundaries."""
    world_ref, reference = multi_plugin_reference
    world = _build()
    with ShmPoolScanEngine(world, workers=3, ticket_sites=5) as engine:
        run = engine.run_week(
            world.config.reference_week, include_tcp=True, plugins=PLUGINS
        )
    _assert_runs_equal(reference, run)
    _assert_plugin_rows_equal(reference, run)
    assert world_ref.clock.now == world.clock.now


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
# Campaigns: cache, checkpoint/resume, trace incompatibility
# ----------------------------------------------------------------------
def _weeks(world):
    start = world.config.start_week
    return [start, start + 6, world.config.reference_week]


def test_campaign_plugins_checkpoint_resume(tmp_path):
    world_ref = _build()
    reference = run_campaign(
        world_ref,
        weeks=_weeks(world_ref),
        plugins=("ecn", "grease"),
        workers=1,
        checkpoint_dir=tmp_path,
    )
    for run in reference.runs:
        assert run.plugin_rows["grease"]
    world = _build()
    resumed = run_campaign(
        world,
        weeks=_weeks(world),
        plugins=("ecn", "grease"),
        workers=2,
        checkpoint_dir=tmp_path,
        resume=True,
    )
    assert reference.weeks() == resumed.weeks()
    for ref_run, run in zip(reference.runs, resumed.runs, strict=True):
        _assert_plugin_rows_equal(ref_run, run)
    assert world_ref.clock.now == world.clock.now


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


def test_run_tracebox_alias_selects_trace_plugin():
    """The reference loop's ``run_tracebox`` traces what the plugin does."""
    world_ref, world = _build(), _build()
    week = world_ref.config.reference_week
    reference = run_weekly_scan_reference(world_ref, week, run_tracebox=True)
    run = world.scan_engine().run_week(week, plugins=("ecn", "trace"))
    assert run.traces
    assert run.traces == reference.traces
    assert world_ref.clock.now == world.clock.now


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

