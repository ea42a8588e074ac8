"""Trace gate: ``repro trace salt --steps 5`` writes a Chrome trace
with at least 20 task spans, every event well-formed."""

from repro.cli import main
from tests.gates._checks import assert_chrome_trace

MIN_TASK_SPANS = 20


def test_trace_has_task_spans(tmp_path):
    main(["trace", "salt", "--steps", "5", "--out", str(tmp_path)])
    assert_chrome_trace(tmp_path / "trace.json", MIN_TASK_SPANS)
