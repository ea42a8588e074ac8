"""The merge step: deterministic ordering, lenient decode, folds."""

import random

from repro.telemetry.emit import FILE_PREFIX
from repro.telemetry.merge import (
    cache_event_tally,
    load_records,
    merge_key,
    registry_from_samples,
    write_merged,
)
from repro.telemetry.prom import prometheus_text
from repro.telemetry.schema import TELEMETRY_SCHEMA, decode_line, encode_line


def _event(pid, seq, ts, name="tick", **attrs):
    return {
        "schema": TELEMETRY_SCHEMA,
        "kind": "event",
        "name": name,
        "pid": pid,
        "seq": seq,
        "ts": ts,
        "trace_id": "t",
        "span_id": None,
        "attrs": attrs,
    }


def _metric(pid, seq, ts, name, metric_type, value, **labels):
    return {
        "schema": TELEMETRY_SCHEMA,
        "kind": "metric",
        "name": name,
        "pid": pid,
        "seq": seq,
        "ts": ts,
        "metric_type": metric_type,
        "value": float(value),
        "labels": {k: str(v) for k, v in labels.items()},
    }


def _write_run(tmp_path, records):
    by_pid = {}
    for record in records:
        by_pid.setdefault(record["pid"], []).append(record)
    for pid, recs in by_pid.items():
        path = tmp_path / f"{FILE_PREFIX}{pid}.jsonl"
        path.write_text("".join(encode_line(r) for r in recs))
    return tmp_path


def test_merge_is_sorted_and_stable_under_remerge(tmp_path):
    rng = random.Random(7)
    records = [
        _event(pid, seq, ts=rng.uniform(0, 10), i=seq)
        for pid in (100, 200, 300)
        for seq in range(40)
    ]
    # appended out of ts-order within each file, as real life does
    _write_run(tmp_path, records)
    merged, skipped = load_records(tmp_path)
    assert skipped == 0
    assert len(merged) == len(records)
    assert merged == sorted(merged, key=merge_key)
    assert merged == load_records(tmp_path)[0]  # deterministic


def test_malformed_lines_are_counted_not_raised(tmp_path):
    good = [_event(1, i, float(i)) for i in range(3)]
    path = tmp_path / f"{FILE_PREFIX}1.jsonl"
    lines = [encode_line(good[0]), "{torn line\n", encode_line(good[1]),
             '{"schema": "other/1"}\n', "\n", encode_line(good[2])]
    path.write_text("".join(lines))
    merged, skipped = load_records(tmp_path)
    assert [r["seq"] for r in merged] == [0, 1, 2]
    assert skipped == 2  # the blank line is not an error


def test_write_merged_round_trips(tmp_path):
    records = [_event(5, i, float(i)) for i in range(4)]
    _write_run(tmp_path, records)
    merged, _ = load_records(tmp_path)
    path = write_merged(tmp_path, merged)
    reread = [decode_line(line) for line in path.read_text().splitlines()]
    assert reread == merged


def test_registry_folds_counters_sum_gauges_last(tmp_path):
    records = [
        _metric(1, 0, 1.0, "hits", "counter", 2, worker="a"),
        _metric(2, 0, 2.0, "hits", "counter", 3, worker="a"),
        _metric(1, 1, 1.5, "hits", "counter", 5, worker="b"),
        _metric(1, 2, 1.0, "depth", "gauge", 7.0),
        _metric(2, 1, 3.0, "depth", "gauge", 4.0),  # last in merge order
    ]
    _write_run(tmp_path, records)
    merged, _ = load_records(tmp_path)
    registry = registry_from_samples(merged)
    text = prometheus_text(registry)
    assert 'hits{worker="a"} 5' in text
    assert 'hits{worker="b"} 5' in text
    assert "depth 4" in text
    assert "# TYPE hits counter" in text
    assert "# TYPE depth gauge" in text


def test_cache_event_tally_folds_store_events(tmp_path):
    records = [
        _event(1, 0, 1.0, "cache.lookup", hit=True),
        _event(1, 1, 2.0, "cache.lookup", hit=False),
        _event(1, 2, 3.0, "cache.lookup", hit=True),
        _event(1, 3, 4.0, "cache.put", bytes=10),
        _event(1, 4, 5.0, "cache.evict"),
        _event(1, 5, 6.0, "unrelated"),
    ]
    _write_run(tmp_path, records)
    merged, _ = load_records(tmp_path)
    assert cache_event_tally(merged) == {
        "lookups": 3, "hits": 2, "misses": 1, "puts": 1, "evictions": 1,
    }
