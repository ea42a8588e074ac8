"""The ``repro.telemetry/1`` record schema.

One telemetry record is one JSON object on one JSONL line.  Every
record is self-describing: it carries the schema tag, its ``kind``
(``span`` | ``event`` | ``metric``), the emitting process id, a
per-process sequence number, and a wall-clock timestamp — everything
the merge step needs to produce one deterministic unified timeline
from any set of per-process files.

Three kinds:

``span``
    a closed interval of orchestration work (a sweep, a shard, a
    verify).  Carries ``trace_id`` / ``span_id`` / ``parent_id`` so a
    process-pool fan-out renders as one coherent trace: the parent's
    fan-out span id is propagated into every worker and becomes the
    ``parent_id`` of that worker's shard span.
``event``
    a point occurrence (cache hit/miss/evict, chaos case verdict,
    log line) attached to the innermost open span, if any.
``metric``
    one sample of a labeled counter (a delta) or gauge (an absolute
    value); the merge folds samples into a
    :class:`repro.obs.metrics.MetricsRegistry`.

``encode_line`` / ``decode_line`` are the canonical (de)serializers —
sorted keys, compact separators — and ``validate_record`` is the
schema gate the merge and the tests share.
"""

from __future__ import annotations

import json
from typing import Any, Dict

#: schema tag stamped on every telemetry record
TELEMETRY_SCHEMA = "repro.telemetry/1"
#: schema tag of the ``repro report`` JSON artifact
REPORT_SCHEMA = "repro.report/1"
#: schema tag of ``repro cache stats --json``
CACHE_STATS_SCHEMA = "repro.cache_stats/1"

KINDS = ("span", "event", "metric")
METRIC_TYPES = ("counter", "gauge")

#: keys every record must carry
COMMON_KEYS = ("schema", "kind", "name", "pid", "seq", "ts")
#: extra required keys per kind
KIND_KEYS = {
    "span": ("trace_id", "span_id", "parent_id", "start", "end", "attrs"),
    "event": ("trace_id", "span_id", "attrs"),
    "metric": ("metric_type", "value", "labels"),
}


def validate_record(record: Any) -> Dict[str, Any]:
    """Check one decoded record against ``repro.telemetry/1``.

    Returns the record on success; raises :class:`ValueError` naming
    the first violation otherwise.
    """
    if not isinstance(record, dict):
        raise ValueError(f"record must be an object, got {type(record).__name__}")
    if record.get("schema") != TELEMETRY_SCHEMA:
        raise ValueError(f"bad schema tag {record.get('schema')!r}")
    kind = record.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    for key in COMMON_KEYS + KIND_KEYS[kind]:
        if key not in record:
            raise ValueError(f"{kind} record missing {key!r}")
    if not isinstance(record["name"], str) or not record["name"]:
        raise ValueError("'name' must be a non-empty string")
    if not isinstance(record["pid"], int) or record["pid"] < 0:
        raise ValueError(f"bad pid {record['pid']!r}")
    if not isinstance(record["seq"], int) or record["seq"] < 0:
        raise ValueError(f"bad seq {record['seq']!r}")
    if not isinstance(record["ts"], (int, float)):
        raise ValueError(f"bad ts {record['ts']!r}")
    if kind == "span":
        if not isinstance(record["span_id"], str) or not record["span_id"]:
            raise ValueError("span_id must be a non-empty string")
        parent = record["parent_id"]
        if parent is not None and not isinstance(parent, str):
            raise ValueError(f"bad parent_id {parent!r}")
        for key in ("start", "end"):
            if not isinstance(record[key], (int, float)):
                raise ValueError(f"bad {key} {record[key]!r}")
        if record["end"] < record["start"]:
            raise ValueError("span ends before it starts")
    if kind == "event":
        span = record["span_id"]
        if span is not None and not isinstance(span, str):
            raise ValueError(f"bad span_id {span!r}")
    if kind == "metric":
        if record["metric_type"] not in METRIC_TYPES:
            raise ValueError(f"bad metric_type {record['metric_type']!r}")
        if not isinstance(record["value"], (int, float)):
            raise ValueError(f"bad value {record['value']!r}")
        labels = record["labels"]
        if not isinstance(labels, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in labels.items()
        ):
            raise ValueError("labels must map str -> str")
    attrs = record.get("attrs")
    if attrs is not None and not isinstance(attrs, dict):
        raise ValueError("attrs must be an object")
    return record


def encode_line(record: Dict[str, Any]) -> str:
    """Canonical one-line encoding (sorted keys, compact, newline)."""
    return (
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    )


def decode_line(line: str) -> Dict[str, Any]:
    """Parse and validate one JSONL line; raises ValueError on junk."""
    return validate_record(json.loads(line))
