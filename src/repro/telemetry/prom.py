"""Prometheus text-format exposition of a metrics registry.

The runtime layer reuses :class:`repro.obs.metrics.MetricsRegistry`
(labeled counters / gauges / histograms) and this module writes it in
the Prometheus exposition format — one ``# TYPE`` declaration per
metric family followed by its samples — so a run directory's
``metrics.prom`` can be scraped, diffed, or pasted into any Prometheus
tooling.
"""

from __future__ import annotations

import re
from typing import List

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _sanitize_name(name: str) -> str:
    """Coerce a metric name into the Prometheus grammar."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _prom_labels(label_str: str) -> str:
    """``k=v,k2=v2`` (the registry's flat form) → ``{k="v",k2="v2"}``."""
    if not label_str:
        return ""
    parts = []
    for pair in label_str.split(","):
        key, _, value = pair.partition("=")
        value = value.replace("\\", r"\\").replace('"', r"\"")
        parts.append(f'{_sanitize_name(key)}="{value}"')
    return "{" + ",".join(parts) + "}"


def _family(row_name: str) -> str:
    """The metric family a flattened row belongs to."""
    for suffix in ("_bucket", "_sum", "_count"):
        if row_name.endswith(suffix):
            return row_name[: -len(suffix)]
    return row_name


def prometheus_text(registry) -> str:
    """Render a :class:`MetricsRegistry` in the exposition format.

    Deterministic: rows come from ``registry.rows()`` (sorted by name
    and label set) and type declarations are emitted at each family's
    first appearance.
    """
    lines: List[str] = []
    declared = set()
    for row in registry.rows():
        family = _sanitize_name(_family(row["name"]))
        if family not in declared:
            declared.add(family)
            lines.append(f"# TYPE {family} {row['type']}")
        name = _sanitize_name(row["name"])
        lines.append(
            f"{name}{_prom_labels(row['labels'])} {row['value']:g}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path, registry) -> int:
    """Write the exposition text; returns the number of sample lines."""
    text = prometheus_text(registry)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return sum(
        1 for line in text.splitlines() if line and not line.startswith("#")
    )
