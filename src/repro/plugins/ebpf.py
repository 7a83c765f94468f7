"""The ``ebpf`` plugin: per-flow TCP codepoint counters, ECT(0) probe.

The paper's TCP measurements attach an eBPF program that counts the
ECN codepoints and ECE/CWR flags on every inbound segment
(``tcp/ebpf.py``).  This plugin runs one extra TCP connection per
(site, week) probing with **ECT(0)** — distinct from the core scan's
CE probe (§6.3), so the variant exercises the non-CE treatment of the
same path and hashes to its own exchange-cache entries — and ships
the raw counter row as the plugin's rows.
"""

from __future__ import annotations

from repro.core.codepoints import ECN
from repro.plugins.base import FieldSpec, MeasurementPlugin, VariantSpec
from repro.plugins.registry import register
from repro.tcp.client import TcpClientConfig


class EbpfPlugin(MeasurementPlugin):
    """One ECT(0)-probing TCP connection per site; counter row."""

    name = "ebpf"
    variants = (VariantSpec("ect0_probe", "tcp"),)
    fields = (
        FieldSpec("negotiated", "bool", "ECN negotiated on the SYN"),
        FieldSpec("not_ect", "int", "inbound not-ECT segments"),
        FieldSpec("ect0", "int", "inbound ECT(0) segments"),
        FieldSpec("ect1", "int", "inbound ECT(1) segments"),
        FieldSpec("ce", "int", "inbound CE segments"),
        FieldSpec("ece_flags", "int", "inbound segments with ECE set"),
        FieldSpec("cwr_flags", "int", "inbound segments with CWR set"),
    )

    def client_config(self, variant, source_ip, ip_version):
        return TcpClientConfig(
            probe_codepoint=ECN.ECT0,
            source_ip=source_ip,
            ip_version=ip_version,
        )

    def row(self, variant, outcome):
        counts = outcome.inbound
        return (
            bool(outcome.ecn_negotiated),
            int(counts.not_ect),
            int(counts.ect0),
            int(counts.ect1),
            int(counts.ce),
            int(counts.ece_flags),
            int(counts.cwr_flags),
        )


register(EbpfPlugin())
