"""Cross-process runtime observability for the orchestrator.

``repro.obs`` watches the *simulated* machine; this package watches the
*real* one running it — the sweep fan-outs, cache traffic, chaos cases,
and gate runs.  The pieces:

- :mod:`~repro.telemetry.schema` — the ``repro.telemetry/1`` record
  schema and its canonical (de)serializers.
- :mod:`~repro.telemetry.emit` — per-process append-only JSONL
  emitters with trace-context propagation and a zero-overhead null
  sink.
- :mod:`~repro.telemetry.runtime` — the process-global
  activate/current/deactivate switchboard library code emits through.
- :mod:`~repro.telemetry.merge` — deterministic unified timeline plus
  the metric/cache folds built on it.
- :mod:`~repro.telemetry.chrome` — Perfetto-loadable trace export of
  the orchestration spans.
- :mod:`~repro.telemetry.prom` — Prometheus text-format exposition of
  the folded metrics registry.
- :mod:`~repro.telemetry.report` — ``repro report``: the
  ``repro.report/1`` document and its self-contained HTML rendering.
"""

from repro.telemetry.emit import (
    NULL_EMITTER,
    NullEmitter,
    SpanHandle,
    TelemetryEmitter,
    TelemetryRun,
    new_trace_id,
)
from repro.telemetry.merge import (
    cache_event_tally,
    load_records,
    merge_key,
    registry_from_samples,
    worker_cache_counts,
    write_merged,
)
from repro.telemetry.schema import (
    CACHE_STATS_SCHEMA,
    REPORT_SCHEMA,
    TELEMETRY_SCHEMA,
    decode_line,
    encode_line,
    validate_record,
)

__all__ = [
    "CACHE_STATS_SCHEMA",
    "NULL_EMITTER",
    "NullEmitter",
    "REPORT_SCHEMA",
    "SpanHandle",
    "TELEMETRY_SCHEMA",
    "TelemetryEmitter",
    "TelemetryRun",
    "cache_event_tally",
    "decode_line",
    "encode_line",
    "load_records",
    "merge_key",
    "new_trace_id",
    "registry_from_samples",
    "validate_record",
    "worker_cache_counts",
    "write_merged",
]
