"""Exporters: Chrome trace-event JSON and flat metrics dumps."""

import csv
import io
import json

import pytest

from repro.concurrent import SimExecutorService
from repro.machine import CORE_I7_920, SimMachine, WorkCost
from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace_events,
    metrics_csv,
    metrics_json,
    write_chrome_trace,
    write_metrics,
)
from repro.perftools.sampling import GroundTruthTimeline
from tests.gates._checks import assert_chrome_trace


@pytest.fixture(scope="module")
def traced_run():
    """A small traced pool run shared by the export tests."""
    m = SimMachine(CORE_I7_920, seed=1, migrate_prob=0.0)
    tracer = Tracer().attach(m.sim)
    pool = SimExecutorService(m, 2, name="p")
    for i in range(6):
        pool.submit(WorkCost(cycles=2e6, label=f"job{i % 2}"))
    pool.shutdown()
    m.run()
    tracer.detach()
    return m, pool, tracer


def test_chrome_events_one_span_per_task(traced_run):
    _m, pool, tracer = traced_run
    events = chrome_trace_events(tracer.task_spans())
    spans = [e for e in events if e.get("cat") == "task"]
    assert len(spans) == sum(pool.tasks_executed) == 6
    for e in spans:
        assert e["ph"] == "X"
        assert e["ts"] >= 0 and e["dur"] > 0
        assert e["args"]["pu"] is not None


def test_chrome_events_have_metadata_and_queue_slices(traced_run):
    _m, _pool, tracer = traced_run
    events = chrome_trace_events(tracer.task_spans())
    meta = [e for e in events if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta}
    assert "repro simulated machine" in names
    assert {"worker-0", "worker-1"} <= names
    # every queue slice references a real task uid
    uids = {e["args"]["task"] for e in events if e.get("cat") == "task"}
    for e in events:
        if e.get("cat") == "queue":
            assert e["args"]["task"] in uids


def test_chrome_events_thread_state_lanes(traced_run):
    m, _pool, tracer = traced_run
    timeline = GroundTruthTimeline(m.scheduler.trace.events)
    events = chrome_trace_events(tracer.task_spans(), timeline=timeline)
    lanes = [e for e in events if e.get("cat") == "thread-state"]
    assert lanes
    assert all(e["tid"] >= 1000 for e in lanes)


def test_written_trace_passes_schema_check(tmp_path, traced_run):
    m, _pool, tracer = traced_run
    path = tmp_path / "trace.json"
    timeline = GroundTruthTimeline(m.scheduler.trace.events)
    n = write_chrome_trace(path, tracer.task_spans(), timeline=timeline)
    payload = json.loads(path.read_text())
    assert len(payload["traceEvents"]) == n
    assert_chrome_trace(path, min_spans=6)


def test_metrics_json_and_csv_round_trip(tmp_path):
    reg = MetricsRegistry()
    reg.counter("hits", core=0).inc(7)
    reg.gauge("ratio").set(0.5)
    reg.histogram("lat", buckets=(0.01,), label="a,b").observe(0.001)
    payload = metrics_json(reg)
    assert payload["metrics"] == reg.rows()
    json.dumps(payload)  # serializable, no numpy scalars

    text = metrics_csv(reg)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(reg.rows())
    by_name = {r["name"]: r for r in rows}
    assert float(by_name["hits"]["value"]) == 7.0
    # comma inside a label value survives CSV quoting
    assert by_name["lat_sum"]["labels"] == "label=a,b"

    jp, cp = tmp_path / "m.json", tmp_path / "m.csv"
    write_metrics(str(jp), str(cp), reg)
    assert json.loads(jp.read_text()) == payload
    assert cp.read_text() == text
