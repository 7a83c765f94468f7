"""The ``grease`` plugin: ECN-greasing visibility variant (paper §9.3).

Runs one extra QUIC connection per (site, week) with an ECN-disabled
stack that *greases* the ECN field — randomly enforcing codepoints on
packets that would otherwise be not-ECT, the paper's proposal for
keeping ECN visible to middleboxes even where it is not used.  The
client-side observables (connection success, greased packet count,
whether the path mirrored markings back) become the plugin's rows.

The grease draws come from the client's own deterministic fallback
stream (``RngStream(0, "quic-client")``), *not* from per-site state:
the exchange-replay cache keys variants on ``(client config, server
behaviour, path, response)``, so two sites sharing a cache entry must
produce identical results — any site-dependent draw would break
replay equivalence.

:func:`grease_client_config` is the one place the greasing client
configuration is derived; ``extensions/greasing.py`` (the standalone
§9.3 study driver) builds its clients through it as well.
"""

from __future__ import annotations

from repro.plugins.base import FieldSpec, MeasurementPlugin, VariantSpec
from repro.plugins.registry import register
from repro.quic.connection import QuicClientConfig


def grease_client_config(
    *,
    grease: bool = True,
    probability: float = 0.25,
    trailing_pings: int = 6,
    source_ip: str | None = None,
    ip_version: int | None = None,
) -> QuicClientConfig:
    """The greasing-study client config (ECN off, greasing on top).

    Without ``source_ip``/``ip_version`` this is exactly the config
    the standalone study always used (defaults preserved so its
    results stay byte-identical); the plugin variant passes the
    vantage's source address so exchange-input derivation routes the
    flow like the core scan.
    """
    kwargs: dict = dict(
        enable_ecn=False,
        grease_ecn=grease,
        grease_probability=probability,
        trailing_pings=trailing_pings,
    )
    if source_ip is not None:
        kwargs["source_ip"] = source_ip
    if ip_version is not None:
        kwargs["ip_version"] = ip_version
    return QuicClientConfig(**kwargs)


class GreasePlugin(MeasurementPlugin):
    """One greased QUIC connection per site; client-side visibility row."""

    name = "grease"
    variants = (VariantSpec("greased", "quic"),)
    fields = (
        FieldSpec("connected", "bool", "greased connection completed"),
        FieldSpec("greased_sent", "int", "packets with enforced codepoints"),
        FieldSpec("mirrored", "bool", "path mirrored markings back"),
    )

    def client_config(self, variant, source_ip, ip_version):
        return grease_client_config(source_ip=source_ip, ip_version=ip_version)

    def row(self, variant, result):
        return (bool(result.connected), int(result.greased_sent),
                bool(result.mirroring))


register(GreasePlugin())
