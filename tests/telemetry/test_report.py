"""``repro report``: the repro.report/1 document and its HTML/trace."""

import json
import re
import shutil

import pytest

from repro.runcache import (
    RunCache,
    attribution_sweep,
    capture_spec,
    observe_spec,
    sweep,
    toolerror_spec,
)
from repro.telemetry import runtime as telemetry_runtime
from repro.telemetry.emit import FILE_PREFIX, TelemetryRun
from repro.telemetry.report import (
    _attribution_block,
    _grid,
    _speedup_block,
    build_report,
    render_html,
    write_report,
)
from repro.telemetry.schema import REPORT_SCHEMA, TELEMETRY_SCHEMA, encode_line

TRACE_ID = "f" * 32


def _span(pid, seq, name, start, end, span_id, parent_id=None, **attrs):
    return {
        "schema": TELEMETRY_SCHEMA, "kind": "span", "name": name,
        "pid": pid, "seq": seq, "ts": end, "trace_id": TRACE_ID,
        "span_id": span_id, "parent_id": parent_id,
        "start": start, "end": end, "attrs": attrs,
    }


def _event(pid, seq, ts, name, **attrs):
    return {
        "schema": TELEMETRY_SCHEMA, "kind": "event", "name": name,
        "pid": pid, "seq": seq, "ts": ts, "trace_id": TRACE_ID,
        "span_id": None, "attrs": attrs,
    }


def _metric(pid, seq, ts, name, value, **labels):
    return {
        "schema": TELEMETRY_SCHEMA, "kind": "metric", "name": name,
        "pid": pid, "seq": seq, "ts": ts, "metric_type": "counter",
        "value": float(value),
        "labels": {k: str(v) for k, v in labels.items()},
    }


#: an attribution-payload-shaped grid (``attribution_sweep``'s runs)
PAYLOAD = {
    "workloads": ["lj", "al1000"],
    "buckets": ["work_inflation", "lock_contention", "scheduling"],
    "runs": [
        {"workload": "lj", "threads": 1, "speedup": 1.0,
         "buckets": {"work_inflation": 0.0, "lock_contention": 0.0,
                     "scheduling": 0.0}},
        {"workload": "lj", "threads": 4, "speedup": 3.1,
         "buckets": {"work_inflation": 0.004, "lock_contention": 0.001,
                     "scheduling": 0.002}},
        {"workload": "al1000", "threads": 1, "speedup": 1.0,
         "buckets": {"work_inflation": 0.0, "lock_contention": 0.0,
                     "scheduling": 0.0}},
        {"workload": "al1000", "threads": 4, "speedup": 1.9,
         "buckets": {"work_inflation": 0.02, "lock_contention": 0.003,
                     "scheduling": 0.001}},
    ],
}


@pytest.fixture()
def run_dir(tmp_path):
    """A hand-built two-process run: one parent, one shard worker."""
    root = tmp_path / "run"
    TelemetryRun(root, label="synthetic", trace_id=TRACE_ID)
    parent = [
        _span(100, 0, "sweep", 1.0, 9.0, "64.1", None, n_specs=2),
        _event(100, 1, 2.0, "cache.lookup", hit=True, kind="trace"),
        _event(100, 2, 3.0, "cache.lookup", hit=False, kind="trace"),
        _event(100, 3, 4.0, "cache.put", bytes=128),
        _event(100, 4, 5.0, "chaos.case", workload="lj", ok=True),
        _event(100, 5, 6.0, "chaos.case", workload="al1000", ok=False),
    ]
    worker = [
        _span(200, 0, "shard", 2.0, 7.5, "c8.1", "64.1", label="lj-4"),
        _event(200, 1, 3.0, "cache.lookup", hit=False, kind="trace"),
        _metric(200, 2, 7.0, "worker_cache_hits", 0, sweep="64.1",
                worker="200"),
        _metric(200, 3, 7.1, "worker_cache_misses", 1, sweep="64.1",
                worker="200"),
    ]
    (root / f"{FILE_PREFIX}100.jsonl").write_text(
        "".join(encode_line(r) for r in parent)
    )
    (root / f"{FILE_PREFIX}200.jsonl").write_text(
        "".join(encode_line(r) for r in worker)
    )
    (root / "al1000.folded").write_text("main;force 10\n")
    return root


def test_build_report_document(run_dir):
    report = build_report(run_dir)
    assert report["schema"] == REPORT_SCHEMA
    assert report["machine"] == "unknown"  # no spec record, no machine
    assert report["trace_id"] == TRACE_ID

    roles = {r["pid"]: r["role"] for r in report["runs"]}
    assert roles == {100: "parent", 200: "worker"}
    worker = next(r for r in report["runs"] if r["pid"] == 200)
    assert worker["hits"] == 0 and worker["misses"] == 1
    assert worker["seconds"] > 0

    cache = report["cache"]
    assert cache["lookups"] == 3
    assert cache["hits"] + cache["misses"] == cache["lookups"]
    assert cache["hit_rate"] == pytest.approx(1 / 3)
    assert cache["puts"] == 1
    assert cache["worker_hits"] == 0 and cache["worker_misses"] == 1

    trace = report["trace"]
    assert trace["n_records"] == 10
    assert trace["n_shards"] == 1
    assert trace["skipped_lines"] == 0
    assert trace["span_names"] == {"sweep": 1, "shard": 1}

    # the sweep span records no specs: nothing to read back
    assert report["speedup"] is None
    assert report["attribution"] is None
    assert report["leaderboard"] is None
    assert report["chaos"] == {"cases": 2, "ok": 1, "failed": 1}
    assert report["flamegraphs"] == ["al1000.folded"]


def _sweep_record(pid, seq, specs, store):
    """A ``sweep`` span recording ``specs`` and their store."""
    entries = [{"digest": f"{i:064x}", "spec": s.canonical()}
               for i, s in enumerate(specs)]
    return _span(pid, seq, "sweep", 10.0 + seq, 11.0 + seq, f"64.{seq}",
                 store=str(store), specs=json.dumps(entries))


def test_blocks_fold_an_attribution_payload():
    speedup = _speedup_block(PAYLOAD)
    assert speedup["threads"] == [1, 4]
    assert speedup["curves"]["lj"] == [1.0, 3.1]
    attribution = _attribution_block(PAYLOAD)
    assert attribution["threads"] == {"lj": 4, "al1000": 4}
    assert attribution["by_workload"]["al1000"]["work_inflation"] == 0.02


def test_build_report_machine_fallbacks(run_dir, tmp_path):
    # the run label ("synthetic") never stands in for the machine
    assert build_report(run_dir)["machine"] == "unknown"
    records = [
        _sweep_record(100, 6, [capture_spec("salt", 1),
                               observe_spec("salt", 1, 2, "i7-920")],
                      tmp_path / "gone"),
        _sweep_record(100, 7, [observe_spec("salt", 1, 4, "x7560x4"),
                               observe_spec("salt", 1, 2, "i7-920")],
                      tmp_path / "gone"),
    ]
    with open(run_dir / f"{FILE_PREFIX}100.jsonl", "a") as fh:
        fh.write("".join(encode_line(r) for r in records))
    report = build_report(run_dir)
    assert report["machine"] == "i7-920, x7560x4"  # first-swept order
    assert report["speedup"] is None  # store gone: nothing to read


def _entries(*specs):
    return [{"digest": str(i), "spec": s.canonical()}
            for i, s in enumerate(specs)]


def test_grid_is_a_fault_free_observe_grid():
    from repro.faults import FaultPlan, Straggler

    base = [capture_spec("salt", 1)] + [
        observe_spec(w, 1, n, "i7-920") for w in ("salt", "gas-8")
        for n in (1, 2)
    ]
    assert len(_grid(_entries(*base))) == 4  # captures aside
    plan = FaultPlan(name="s", faults=(Straggler(0.0, 1.0, 1, 0.5),))
    for odd in (
        observe_spec("salt", 1, 4, "i7-920", fault_plan=plan),
        observe_spec("salt", 1, 4, "i7-920", queue_mode="per-thread"),
        observe_spec("salt", 2, 4, "i7-920"),
        observe_spec("al1000", 1, 4, "i7-920"),  # no 1-thread baseline
        toolerror_spec("salt", 1, 4, "i7-920"),
    ):
        assert _grid(_entries(*base, odd)) is None, odd.label()
    assert _grid(_entries(capture_spec("salt", 1))) is None


def test_report_reads_the_swept_grid_back_from_the_store(tmp_path):
    store = tmp_path / "store"
    specs = [observe_spec("salt", 1, n, "i7-920") for n in (1, 2)]
    telemetry_runtime.activate(tmp_path / "run", label="sweep")
    try:
        sweep(specs, RunCache(store), jobs=1)
    finally:
        telemetry_runtime.deactivate()
    payload, _ = attribution_sweep(
        ["salt"], [1, 2], steps=1, cache=RunCache(store), jobs=1
    )

    report = build_report(tmp_path / "run")
    assert report["machine"] == "i7-920"
    assert report["speedup"]["threads"] == [1, 2]
    assert report["speedup"] == _speedup_block(payload)
    assert report["attribution"] == _attribution_block(payload)

    # a store removed after the sweep: the blocks go, the report builds
    shutil.rmtree(store)
    write_report(tmp_path / "run")
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["speedup"] is None
    assert report["attribution"] is None
    assert report["leaderboard"] is None
    assert report["machine"] == "i7-920"


def test_report_over_copied_records_writes_nothing_into_them(tmp_path):
    """A run's record files copied without ``run.json``: the report
    (rendered elsewhere) creates no manifest in its input, and its
    trace id is the one the records carry."""
    run = tmp_path / "run"
    telemetry_runtime.activate(run, label="sweep")
    try:
        sweep([capture_spec("salt", 1)], RunCache(tmp_path / "store"), jobs=1)
    finally:
        telemetry_runtime.deactivate()
    copy = tmp_path / "copy"
    copy.mkdir()
    for path in run.glob(f"{FILE_PREFIX}*.jsonl"):
        shutil.copy(path, copy / path.name)
    before = sorted(p.name for p in copy.iterdir())
    records = [
        json.loads(line)
        for name in before
        for line in (copy / name).read_text().splitlines()
    ]
    ids = {r["trace_id"] for r in records if r.get("trace_id")}

    write_report(copy, tmp_path / "out")

    assert sorted(p.name for p in copy.iterdir()) == before
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert ids == {report["trace_id"]}
    assert report["trace_id"] == TelemetryRun(run).trace_id
    assert report["label"] == ""


def test_build_report_empty_run_raises(tmp_path):
    with pytest.raises(ValueError, match="no telemetry records"):
        build_report(tmp_path)


def test_html_is_self_contained(run_dir):
    page = render_html({
        **build_report(run_dir),
        "speedup": _speedup_block(PAYLOAD),
        "attribution": _attribution_block(PAYLOAD),
    })
    assert "<svg" in page and "<style>" in page
    assert "<script" not in page
    # the only absolute URL is the Perfetto hyperlink (an anchor, not a
    # loaded resource)
    for url in re.findall(r"https?://[^\"'\s<]+", page):
        assert url.startswith("https://ui.perfetto.dev")
    # identity is never color-alone: legend for the multi-series chart,
    # table view for the processes
    assert '<div class="legend">' in page
    assert "<table>" in page
    # both color-scheme variants ship from the same palette
    assert "prefers-color-scheme: dark" in page
    assert 'data-theme="dark"' in page


def test_write_report_artifact_set(run_dir, tmp_path):
    out = tmp_path / "out"
    paths = write_report(run_dir, out)
    assert set(paths) == {"merged", "trace", "metrics", "json", "html"}
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == REPORT_SCHEMA

    trace = json.loads((out / "trace.json").read_text())
    events = trace["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == 2  # sweep + shard spans
    assert all(e["cat"] == "orchestration" for e in complete)
    shard = next(e for e in complete if e["name"] == "shard")
    assert shard["args"]["parent_id"] == "64.1"
    assert shard["dur"] > 0
    # one lane per process, named by role
    meta = {
        e["pid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert len(meta) == 2
    assert meta[100] == "sweep (pid 100)"
    assert meta[200] == "worker (pid 200)"

    prom = (out / "metrics.prom").read_text()
    assert "# TYPE worker_cache_misses counter" in prom
    assert 'worker_cache_misses{sweep="64.1",worker="200"} 1' in prom

    merged = (out / "merged.jsonl").read_text().splitlines()
    assert len(merged) == 10


def test_resilience_block_counts_supervision_events(tmp_path):
    root = tmp_path / "run"
    TelemetryRun(root, label="chaotic", trace_id=TRACE_ID)
    records = [
        _span(100, 0, "sweep", 1.0, 9.0, "64.1", None, n_specs=2),
        _event(100, 1, 2.0, "sweep.retry", digest="abc", attempt=1),
        _event(100, 2, 2.5, "sweep.retry", digest="abc", attempt=2),
        _event(100, 3, 3.0, "sweep.timeout", digest="def", timeout=5.0),
        _event(100, 4, 4.0, "sweep.pool_restart", restarts=1, workers=1),
        _event(100, 5, 5.0, "sweep.degraded", remaining=1, restarts=1),
        _event(100, 6, 6.0, "sweep.quarantine", digest="fff", attempts=3),
        _event(100, 7, 7.0, "cache.put_failed", kind="observe"),
        _event(100, 8, 8.0, "cache.orphans_reaped", count=3),
        # degraded parent executes shard spans itself: still a parent
        _span(100, 9, "shard", 5.0, 6.0, "77.1", "64.1", serial=True),
    ]
    (root / f"{FILE_PREFIX}100.jsonl").write_text(
        "".join(encode_line(r) for r in records)
    )

    report = build_report(root)
    block = report["resilience"]
    assert block == {
        "retries": 2,
        "timeouts": 1,
        "pool_restarts": 1,
        "degraded": 1,
        "quarantined": 1,
        "put_failures": 1,
        "orphans_reaped": 3,
    }
    roles = {r["pid"]: r["role"] for r in report["runs"]}
    assert roles == {100: "parent"}  # shard spans don't demote the root

    html = render_html(report)
    assert "Resilience" in html
    assert "supervised retries" in html
    assert "orphaned temp files reaped" in html


def test_resilience_block_absent_when_nothing_happened(run_dir):
    report = build_report(run_dir)
    assert report["resilience"] is None
    assert "Resilience" not in render_html(report)


def test_report_shows_the_faults_and_system_time_of_each_units_process(
    tmp_path,
):
    """Each ``shard`` span records its unit's minor page faults and
    system CPU seconds; the report sums them per process."""
    run = tmp_path / "run"
    specs = [capture_spec("salt", 1), capture_spec("nanocar", 1)]
    telemetry_runtime.activate(run, label="sweep")
    try:
        result = sweep(specs, RunCache(tmp_path / "store"), jobs=2)
    finally:
        telemetry_runtime.deactivate()
    report = build_report(run)
    units = [r for r in report["runs"] if "shard" in r["span_names"]]
    assert units and len(units) <= 2
    assert sum(r["minflt"] for r in units) > 0
    assert all(r["sys_s"] >= 0 for r in report["runs"])
    if result.fanout and not result.degraded:
        assert {r["role"] for r in units} == {"worker"}
    assert "unit minor faults" in render_html(report)
