"""Global plugin registry: names, stable variant kinds, selections.

Registration validates a plugin's declarations (unique name, legal
field names that do not collide with the core observation columns,
known transports) and assigns every declared variant a **stable
event kind** ≥ :data:`~repro.plugins.base.PLUGIN_KIND_BASE` from a
global counter.  Kinds are a property of registration order, not of
per-run selection, so ticket result frames and checkpoint
entries encoded in one process decode identically in any other that
performed the same registrations — the builtin plugins register in a
fixed order on ``import repro.plugins``, and forked workers inherit
or repeat it.

:func:`resolve_plugins` turns a user-facing name tuple (CLI
``--plugins ecn,grease``) into a :class:`PluginSelection`: the
deduplicated canonical names, the variant bindings to schedule (in
selection order), the row-producing plugins and the finalizer hooks.
The core ``ecn`` plugin must be part of every selection — it *is*
the base scan the store and attribution are built around.
"""

from __future__ import annotations

import re
from typing import Final

from repro.plugins.base import (
    FIELD_KINDS,
    PLUGIN_KIND_BASE,
    MeasurementPlugin,
    VariantBinding,
)

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: The default selection when a caller does not pick plugins.
DEFAULT_PLUGINS = ("ecn",)


def _reserved_field_names() -> frozenset:
    """Core per-domain columns a plugin field must not shadow."""
    from dataclasses import fields as dataclass_fields, is_dataclass

    from repro.scanner.results import DomainObservation

    if is_dataclass(DomainObservation):
        names = tuple(f.name for f in dataclass_fields(DomainObservation))
    else:
        names = tuple(getattr(DomainObservation, "__slots__", ()))
    return frozenset(names) | {
        "week", "vantage_id", "ip_version", "share", "quic_capable",
    }


RESERVED_FIELD_NAMES: Final = _reserved_field_names()

# Registry state is Final (never rebound) and filled only during
# import-time registration, so the parent and forked shm-pool workers
# all hold identical contents (REP003).
_PLUGINS: Final[dict[str, MeasurementPlugin]] = {}
_BINDINGS_BY_KIND: Final[dict[int, VariantBinding]] = {}
_BINDINGS_BY_PLUGIN: Final[dict[str, tuple[VariantBinding, ...]]] = {}
_NEXT_KIND = PLUGIN_KIND_BASE
_SELECTION_MEMO: Final[dict[tuple, "PluginSelection"]] = {}


def register(plugin: MeasurementPlugin) -> MeasurementPlugin:
    """Register ``plugin`` globally, assigning kinds to its variants.

    Raises ``ValueError`` on duplicate names, malformed or reserved
    field names, unknown field kinds/transports, or fields declared
    without any variant to fill them.
    """
    # The kind counter only advances during import-time registration
    # (builtins register on `import repro.plugins`, in a fixed order),
    # so every process that performs the same imports agrees on kinds.
    # repro-lint: skip[REP003] import-time counter, identical in workers
    global _NEXT_KIND
    name = plugin.name
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(f"invalid plugin name {name!r} "
                         "(want lowercase [a-z][a-z0-9_]*)")
    if name in _PLUGINS:
        raise ValueError(f"duplicate plugin name {name!r}")
    seen_fields: set[str] = set()
    for spec in plugin.fields:
        if not _NAME_RE.match(spec.name):
            raise ValueError(f"plugin {name!r}: invalid field name {spec.name!r}")
        if spec.name in RESERVED_FIELD_NAMES:
            raise ValueError(
                f"plugin {name!r}: field {spec.name!r} collides with a "
                "core observation column")
        if spec.name in seen_fields:
            raise ValueError(f"plugin {name!r}: duplicate field {spec.name!r}")
        if spec.kind not in FIELD_KINDS:
            raise ValueError(f"plugin {name!r}: field {spec.name!r} has "
                             f"unknown kind {spec.kind!r} (want one of "
                             f"{', '.join(FIELD_KINDS)})")
        seen_fields.add(spec.name)
    if plugin.fields and not plugin.variants:
        raise ValueError(f"plugin {name!r} declares output fields but no "
                         "variants to fill them")
    seen_variants: set[str] = set()
    bindings = []
    for variant in plugin.variants:
        if variant.transport not in ("quic", "tcp"):
            raise ValueError(f"plugin {name!r}: variant {variant.name!r} has "
                             f"unknown transport {variant.transport!r}")
        if variant.name in seen_variants:
            raise ValueError(f"plugin {name!r}: duplicate variant "
                             f"{variant.name!r}")
        seen_variants.add(variant.name)
        bindings.append(VariantBinding(plugin, variant, _NEXT_KIND))
        _NEXT_KIND += 1
    _PLUGINS[name] = plugin
    _BINDINGS_BY_PLUGIN[name] = tuple(bindings)
    for binding in bindings:
        _BINDINGS_BY_KIND[binding.kind] = binding
    _SELECTION_MEMO.clear()
    return plugin


def unregister(name: str) -> None:
    """Remove a plugin (test helper; assigned kinds are not reused)."""
    plugin = _PLUGINS.pop(name, None)
    if plugin is None:
        return
    for binding in _BINDINGS_BY_PLUGIN.pop(name, ()):
        _BINDINGS_BY_KIND.pop(binding.kind, None)
    _SELECTION_MEMO.clear()


def get_plugin(name: str) -> MeasurementPlugin:
    try:
        return _PLUGINS[name]
    except KeyError:
        raise ValueError(f"unknown measurement plugin {name!r}; registered: "
                         f"{', '.join(available())}") from None


def available() -> tuple[str, ...]:
    """Registered plugin names, in registration order."""
    return tuple(_PLUGINS)


def binding_for_kind(kind: int) -> VariantBinding:
    """The (plugin, variant) binding owning event kind ``kind``."""
    try:
        return _BINDINGS_BY_KIND[kind]
    except KeyError:
        raise ValueError(f"no registered plugin variant for event kind "
                         f"{kind}") from None


def stream_tag(kind: int) -> str:
    """RNG-substream tag for a plugin event kind (``plugin/variant``)."""
    return binding_for_kind(kind).stream_tag


class PluginSelection:
    """A resolved, validated set of plugins for one run."""

    __slots__ = ("names", "plugins", "bindings", "row_plugins", "finalizers")

    def __init__(self, names, plugins, bindings, row_plugins, finalizers):
        self.names = names            # canonical name tuple (deduped, ordered)
        self.plugins = plugins        # tuple[MeasurementPlugin]
        self.bindings = bindings      # tuple[VariantBinding] to schedule
        self.row_plugins = row_plugins  # plugins contributing output fields
        self.finalizers = finalizers  # plugins with a finalize_run override

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PluginSelection {'+'.join(self.names)}>"


def resolve_plugins(names=None) -> PluginSelection:
    """Resolve a name iterable into a validated :class:`PluginSelection`.

    ``None`` means :data:`DEFAULT_PLUGINS`.  Order is preserved
    (after dedup) and determines variant scheduling order; the core
    ``ecn`` plugin is required in every selection.
    """
    if names is None:
        names = DEFAULT_PLUGINS
    ordered = tuple(dict.fromkeys(names))
    memo = _SELECTION_MEMO.get(ordered)
    if memo is not None:
        return memo
    plugins = tuple(get_plugin(name) for name in ordered)
    if "ecn" not in ordered:
        raise ValueError("the core 'ecn' plugin must be part of every "
                         "selection (it is the base scan)")
    bindings = tuple(
        binding for name in ordered for binding in _BINDINGS_BY_PLUGIN[name]
    )
    row_plugins = tuple(p for p in plugins if p.fields)
    finalizers = tuple(
        p for p in plugins
        if type(p).finalize_run is not MeasurementPlugin.finalize_run
    )
    selection = PluginSelection(ordered, plugins, bindings, row_plugins,
                                finalizers)
    _SELECTION_MEMO[ordered] = selection
    return selection
