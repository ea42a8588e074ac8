"""Validators the gates share: the artifact envelope, Chrome
trace-event files, collapsed stacks and rendered report directories.

Each raises ``AssertionError`` with a diagnostic on the first fault.
"""

import json
import math
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
#: where the gates that render reports write them (git-ignored; CI
#: uploads the directory)
OUT_DIR = REPO / "benchmarks" / "out"

FOLDED_LINE = re.compile(r"^(?P<stack>\S+(?: \S+)*) (?P<value>\d+)$")

#: a loaded external resource — anything here breaks self-containment
EXTERNAL = (
    re.compile(r"<script[^>]*\bsrc\s*=", re.I),
    re.compile(r"<link[^>]*\brel\s*=\s*[\"']?stylesheet[^>]*"
               r"\bhref\s*=\s*[\"']?(?:https?:)?//", re.I),
    re.compile(r"<img[^>]*\bsrc\s*=\s*[\"']?(?:https?:)?//", re.I),
    re.compile(r"@import\s+", re.I),
    re.compile(r"url\(\s*[\"']?(?:https?:)?//", re.I),
    re.compile(r"<iframe", re.I),
)


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def missing(mapping, keys) -> list:
    """Sorted required keys absent from ``mapping``."""
    return sorted(set(keys) - mapping.keys())


def assert_envelope(payload, schema_prefix: str, runs_key="runs"):
    """A ``schema`` tag starting with ``schema_prefix``, a ``machine``
    name and (unless ``runs_key`` is None) a non-empty list of run
    objects."""
    assert isinstance(payload, dict), "top level must be an object"
    schema = str(payload.get("schema", ""))
    assert schema.startswith(schema_prefix), (
        f"unexpected schema tag {schema!r} (expected {schema_prefix}...)"
    )
    assert payload.get("machine"), "missing 'machine'"
    if runs_key is not None:
        runs = payload.get(runs_key)
        assert isinstance(runs, list) and runs, (
            f"'{runs_key}' must be a non-empty list"
        )
        assert all(isinstance(r, dict) for r in runs), "run not an object"


def assert_chrome_trace(path, min_spans: int) -> int:
    """A Chrome trace-event file whose events carry the fields of their
    phase type, with at least ``min_spans`` ``task`` spans; returns
    the task-span count."""
    payload = load_json(path)
    assert isinstance(payload, dict) and "traceEvents" in payload, (
        "top level must be an object with 'traceEvents'"
    )
    events = payload["traceEvents"]
    assert isinstance(events, list) and events, (
        "'traceEvents' must be a non-empty list"
    )
    task_spans = 0
    for i, event in enumerate(events):
        assert isinstance(event, dict), f"event {i} is not an object"
        lacking = missing(event, {"name", "ph", "pid", "tid"})
        assert not lacking, f"event {i} missing fields {lacking}"
        if event["ph"] == "X":
            assert "ts" in event and "dur" in event, (
                f"complete event {i} lacks ts/dur"
            )
            assert event["ts"] >= 0 and event["dur"] >= 0, (
                f"event {i} has negative ts/dur"
            )
            task_spans += event.get("cat") == "task"
    assert task_spans >= min_spans, (
        f"{task_spans} task spans found, expected >= {min_spans}"
    )
    return task_spans


def assert_folded(path, min_lines: int):
    """A Brendan-Gregg collapsed-stack file: ``frame;frame... <count>``."""
    lines = [
        ln.rstrip("\n")
        for ln in Path(path).read_text(encoding="utf-8").splitlines()
        if ln.strip()
    ]
    assert len(lines) >= min_lines, (
        f"{len(lines)} folded lines, expected >= {min_lines}"
    )
    for i, line in enumerate(lines):
        m = FOLDED_LINE.match(line)
        assert m, f"line {i + 1}: not 'frames <count>' format: {line!r}"
        assert ";" in m.group("stack"), (
            f"line {i + 1}: stack has no ';'-separated frames"
        )


def assert_report_dir(report_dir):
    """What ``repro report`` writes: a schema-valid ``report.json``, a
    self-contained ``report.html``, an orchestration ``trace.json``,
    ``merged.jsonl`` and ``metrics.prom``."""
    root = Path(report_dir)
    for name in ("report.json", "report.html", "trace.json",
                 "merged.jsonl", "metrics.prom"):
        assert (root / name).exists(), f"missing artifact {name}"

    report = load_json(root / "report.json")
    assert_envelope(report, "repro.report/")
    for i, run in enumerate(report["runs"]):
        lacking = missing(run, {"pid", "role", "seconds", "n_spans",
                                "n_events", "hits", "misses"})
        assert not lacking, f"run {i} missing keys {lacking}"
        assert run["role"] in ("parent", "worker", "process"), run["role"]
        assert run["seconds"] >= 0, f"run {i}: negative seconds"
    cache = report.get("cache")
    assert isinstance(cache, dict), "missing 'cache' block"
    lacking = missing(cache, {"lookups", "hits", "misses", "hit_rate",
                              "puts", "evictions", "worker_hits",
                              "worker_misses"})
    assert not lacking, f"'cache' block missing keys {lacking}"
    assert cache["hits"] + cache["misses"] == cache["lookups"], cache
    trace = report.get("trace")
    assert isinstance(trace, dict) and trace.get("n_records", 0) >= 1, (
        "'trace' block missing or empty"
    )
    assert report.get("trace_id"), "missing 'trace_id'"

    html = (root / "report.html").read_text(encoding="utf-8")
    assert "<svg" in html, "report.html has no inline SVG charts"
    assert "<style" in html, "report.html has no inline stylesheet"
    for pattern in EXTERNAL:
        match = pattern.search(html)
        assert match is None, (
            f"report.html loads an external resource: {match.group(0)!r}"
        )

    events = load_json(root / "trace.json").get("traceEvents")
    assert isinstance(events, list) and events, "empty trace.json"
    assert any(e.get("cat") == "orchestration" for e in events), (
        "trace.json has no orchestration events"
    )


def finite_nonnegative(value) -> bool:
    return (
        isinstance(value, (int, float))
        and math.isfinite(value)
        and value >= 0
    )
