"""Report gate: the attribution sweep of the paper grid run with
telemetry on renders, through ``repro report``'s ``write_report``, into
a schema-valid ``report.json`` and a self-contained ``report.html``
(written under ``benchmarks/out/test_report``).  The report reads the
grid back from the run cache entries the sweep recorded: its speedup
and attribution blocks are the ones the sweep's own payload gives."""

from repro.runcache import RunCache, attribution_sweep
from repro.telemetry import runtime as telemetry_runtime
from repro.telemetry.report import (
    _attribution_block,
    _speedup_block,
    write_report,
)
from tests.gates._checks import assert_report_dir, load_json


def test_report_is_valid_and_self_contained(shipped_dir, tmp_path):
    telemetry_runtime.activate(str(shipped_dir), label="attribution")
    try:
        payload, _stats = attribution_sweep(
            workloads=["salt", "nanocar", "al1000"],
            threads=[1, 2, 4, 8],
            spec="i7-920",
            steps=5,
            seed=0,
            cache=RunCache(tmp_path),
        )
    finally:
        telemetry_runtime.deactivate()
    write_report(shipped_dir)
    assert_report_dir(shipped_dir)

    report = load_json(shipped_dir / "report.json")
    assert report["machine"] == "i7-920"
    assert report["speedup"] is not None
    assert report["speedup"] == _speedup_block(payload)
    assert report["attribution"] is not None
    assert report["attribution"] == _attribution_block(payload)
