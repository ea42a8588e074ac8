"""Report gate: the attribution sweep of the paper grid run with
telemetry on renders, through ``repro report``'s ``write_report``, into
a schema-valid ``report.json`` and a self-contained ``report.html``
(written under ``benchmarks/out/test_report``)."""

import json

from repro.runcache import RunCache, attribution_sweep
from repro.telemetry import runtime as telemetry_runtime
from repro.telemetry.report import BENCH_NAME, write_report
from tests.gates._checks import assert_report_dir


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
    (shipped_dir / BENCH_NAME).write_text(
        json.dumps(payload, indent=1) + "\n", encoding="utf-8"
    )
    write_report(shipped_dir)
    assert_report_dir(shipped_dir)
