"""Merging per-process JSONL files into one deterministic timeline.

Each process of a run writes its own append-only file, so the run
directory holds N partial, individually-ordered streams.  The merge
reads them all, validates every line against ``repro.telemetry/1``
(malformed lines are counted and skipped, never raised — a crashed
worker's final torn line must not take the report down), and sorts by
``(ts, pid, seq)``: a total order that is deterministic for any given
set of files and stable under re-merging.

On top of the merged timeline sit the folds the report consumes:
metric samples → a :class:`repro.obs.metrics.MetricsRegistry`
(counters sum their deltas, gauges keep the last sample in merge
order) and cache-event tallies.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

from repro.telemetry.emit import FILE_PREFIX, read_manifest
from repro.telemetry.schema import decode_line, encode_line

MERGED_NAME = "merged.jsonl"


def merge_key(record: dict) -> Tuple[float, int, int]:
    """The total order of the unified timeline."""
    return (record["ts"], record["pid"], record["seq"])


def load_records(
    run_dir: Union[str, os.PathLike],
) -> Tuple[List[dict], int]:
    """Read, validate, and order every record of a run.

    Returns ``(records, skipped)`` where ``skipped`` counts malformed
    lines (torn tails of crashed writers, stray junk) that were
    dropped.
    """
    root = Path(run_dir)
    records: List[dict] = []
    skipped = 0
    for path in sorted(root.glob(f"{FILE_PREFIX}*.jsonl")):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            skipped += 1
            continue
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                records.append(decode_line(line))
            except ValueError:
                skipped += 1
    records.sort(key=merge_key)
    return records, skipped


def write_merged(
    run_dir: Union[str, os.PathLike], records: List[dict]
) -> Path:
    """Write the unified timeline as ``merged.jsonl``; returns its path."""
    path = Path(run_dir) / MERGED_NAME
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(encode_line(record))
    os.replace(tmp, path)
    return path


def spans(records: List[dict]) -> List[dict]:
    return [r for r in records if r["kind"] == "span"]


def events(records: List[dict]) -> List[dict]:
    return [r for r in records if r["kind"] == "event"]


def metric_samples(records: List[dict]) -> List[dict]:
    return [r for r in records if r["kind"] == "metric"]


def registry_from_samples(records: List[dict]):
    """Fold metric samples into a labeled registry.

    Counter samples are deltas and sum; gauge samples are absolute and
    the last one in merge order wins — exactly the Prometheus reading
    of the two types.
    """
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    for sample in metric_samples(records):
        if sample["metric_type"] == "counter":
            registry.counter(sample["name"], **sample["labels"]).inc(
                sample["value"]
            )
        else:
            registry.gauge(sample["name"], **sample["labels"]).set(
                sample["value"]
            )
    return registry


def cache_event_tally(records: List[dict]) -> Dict[str, int]:
    """Counts of the store's instrumentation events across the run."""
    tally: Dict[str, int] = {
        "lookups": 0, "hits": 0, "misses": 0, "puts": 0, "evictions": 0,
    }
    for record in events(records):
        name = record["name"]
        if name == "cache.lookup":
            tally["lookups"] += 1
            if record["attrs"].get("hit"):
                tally["hits"] += 1
            else:
                tally["misses"] += 1
        elif name == "cache.put":
            tally["puts"] += 1
        elif name == "cache.evict":
            tally["evictions"] += 1
    return tally


class RunManifest(NamedTuple):
    """The identity of a run as the report shows it."""

    trace_id: str
    label: str


def run_manifest(
    run_dir: Union[str, os.PathLike], records: Sequence[dict]
) -> RunManifest:
    """Read a run directory's manifest without writing to it.

    A directory without a readable ``run.json`` (say, a copy of a run's
    ``telemetry-*.jsonl`` files alone) takes its trace id from the
    first of ``records`` that carries one, in merge order, and has no
    label; with no such record the trace id is empty."""
    doc = read_manifest(run_dir)
    if doc is not None:
        return RunManifest(str(doc["trace_id"]), str(doc.get("label", "")))
    trace_id = next(
        (r["trace_id"] for r in records if r.get("trace_id")), ""
    )
    return RunManifest(trace_id, "")
