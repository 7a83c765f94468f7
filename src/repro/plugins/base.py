"""Measurement-plugin API: declare variants and output fields.

The paper runs one hard-coded measurement — an ECN-negotiating QUIC
handshake (plus an optional TCP control connection) per site × week ×
vantage.  Its methodology generalises to any path-transparency
question, and PATHspider formalised the shape such studies share: a
*plugin* declares the **connection variants** it wants run against
every target and the typed **per-flow output fields** it derives from
each result.  This module is that contract for the site-first engine.

A :class:`MeasurementPlugin` declares

* ``variants`` — extra connections scheduled per (site, week) on top
  of the core scan.  Each variant is realised as a derivation of
  ``ExchangeInputs``: the plugin contributes a frozen client config
  (:meth:`MeasurementPlugin.client_config`) and the engine reuses the
  whole ``prepare inputs → exchange-cache → run/replay`` choke point
  (:mod:`repro.exchange`), so variant connections are cached, ticketed
  and checkpointed exactly like the core scan.
* ``fields`` — typed per-flow outputs.  :meth:`MeasurementPlugin.row`
  maps one exchange result to one value tuple (aligned with
  ``fields``); the columnar ``ObservationStore`` materialises them as
  per-plugin columns and the ECNSTOR codec ships them through ticket
  result frames and checkpoints.

**Purity requirement:** ``row`` must be a pure function of the
exchange result.  The exchange-replay cache memoises ``(result,
clock advances)`` per distinct inputs, so a cached variant replays
the stored result object — any hidden state in ``row`` would make
fresh and replayed runs disagree.  For the same reason a variant's
client draws must not depend on per-site or per-week identity beyond
what ``ExchangeInputs`` captures (two sites with identical behaviour,
path and response share one cache entry).

Plugins without variants are allowed: ``ecn`` names the core scan
itself (kinds 0/1 are engine-owned), and ``trace`` only registers a
:meth:`MeasurementPlugin.finalize_run` hook that samples tracebox
probes after attribution.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Event kinds 0 (QUIC) and 1 (TCP) belong to the core scan; the
#: registry assigns plugin variants stable kinds from 2 upward in
#: registration order.
PLUGIN_KIND_BASE = 2

#: Allowed ``FieldSpec.kind`` values and the python types they admit.
FIELD_KINDS = ("bool", "int", "float", "str")


@dataclass(frozen=True)
class FieldSpec:
    """One typed per-flow output column contributed by a plugin.

    ``kind`` is one of :data:`FIELD_KINDS`; ``None`` is always a
    legal value (a variant that did not fill the field).
    """

    name: str
    kind: str
    doc: str = ""


@dataclass(frozen=True)
class VariantSpec:
    """One extra connection a plugin runs per (site, week).

    ``transport`` selects the exchange family: ``"quic"`` variants
    derive QUIC exchange inputs, ``"tcp"`` variants TCP ones.
    """

    name: str
    transport: str  # "quic" | "tcp"


class MeasurementPlugin:
    """Base class for measurement plugins.

    Subclasses set ``name``, ``variants`` and ``fields`` as class
    attributes and override :meth:`client_config` / :meth:`row` when
    they declare variants, or :meth:`finalize_run` for post-
    attribution work.  Register instances with
    :func:`repro.plugins.register`.
    """

    name: str = ""
    variants: tuple[VariantSpec, ...] = ()
    fields: tuple[FieldSpec, ...] = ()

    def client_config(self, variant: VariantSpec, source_ip: str, ip_version: int):
        """Frozen client config for ``variant`` from this vantage.

        The engine derives ``ExchangeInputs`` from it; distinct
        configs hash to distinct exchange-cache keys, which is what
        makes variant connections cacheable alongside the core scan.
        """
        raise NotImplementedError(f"plugin {self.name!r} declares no variants")

    def row(self, variant: VariantSpec, result) -> tuple:
        """Map one exchange result to a value tuple aligned with ``fields``.

        Must be pure (see module docstring).  Fields a variant does
        not fill are ``None``; when a plugin runs several variants
        per site, the engine merges their rows field-wise with the
        last non-``None`` value (in variant declaration order)
        winning.
        """
        raise NotImplementedError(f"plugin {self.name!r} declares no fields")

    def finalize_run(self, world, run, week, vantage_id, ip_version) -> None:
        """Post-attribution hook, run once per week against the run."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.name!r} "
                f"variants={len(self.variants)} fields={len(self.fields)}>")


class VariantBinding:
    """A registered (plugin, variant) pair bound to its stable kind.

    The registry assigns kinds globally at registration time, so a
    binding's kind is identical in the parent process and forked
    shm-pool workers (they all import the same builtin
    registrations in the same order) and independent of which plugins
    a particular run selects.
    """

    __slots__ = ("plugin", "variant", "kind", "stream_tag", "_config_memo")

    def __init__(self, plugin: MeasurementPlugin, variant: VariantSpec, kind: int):
        self.plugin = plugin
        self.variant = variant
        self.kind = kind
        #: Substream tag for per-site RNG derivation and diagnostics.
        self.stream_tag = f"{plugin.name}/{variant.name}"
        self._config_memo: dict = {}

    def client_config(self, source_ip: str, ip_version: int):
        """Memoised frozen client config per (vantage source, family)."""
        key = (source_ip, ip_version)
        config = self._config_memo.get(key)
        if config is None:
            config = self.plugin.client_config(self.variant, source_ip, ip_version)
            self._config_memo[key] = config
        return config

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VariantBinding {self.stream_tag} kind={self.kind}>"
