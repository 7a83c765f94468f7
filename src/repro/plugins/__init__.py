"""Measurement plugins: PATHspider-shaped variants over the shared engine.

``import repro.plugins`` registers the builtin plugins in a fixed
order (``ecn``, ``grease``, ``trace``, ``ebpf``), which pins their
variants' global event kinds — the engine and forked shm-pool workers
all see the same assignment.  See ``docs/plugins.md``
for the API and a worked example.
"""

from repro.plugins.base import (
    FIELD_KINDS,
    PLUGIN_KIND_BASE,
    FieldSpec,
    MeasurementPlugin,
    VariantBinding,
    VariantSpec,
)
from repro.plugins.registry import (
    DEFAULT_PLUGINS,
    RESERVED_FIELD_NAMES,
    PluginSelection,
    available,
    binding_for_kind,
    get_plugin,
    register,
    resolve_plugins,
    stream_tag,
    unregister,
)

# Builtin registrations, in kind-assignment order (ecn owns the core
# kinds 0/1 and registers no variants; grease takes kind 2, ebpf 3).
from repro.plugins import ecn as _ecn  # noqa: E402,F401
from repro.plugins import grease as _grease  # noqa: E402,F401
from repro.plugins import trace as _trace  # noqa: E402,F401
from repro.plugins import ebpf as _ebpf  # noqa: E402,F401

__all__ = [
    "FIELD_KINDS",
    "PLUGIN_KIND_BASE",
    "DEFAULT_PLUGINS",
    "RESERVED_FIELD_NAMES",
    "FieldSpec",
    "MeasurementPlugin",
    "PluginSelection",
    "VariantBinding",
    "VariantSpec",
    "available",
    "binding_for_kind",
    "get_plugin",
    "register",
    "resolve_plugins",
    "stream_tag",
    "unregister",
]
