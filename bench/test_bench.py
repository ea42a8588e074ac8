"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest bench``.

The smoke run uses tiny steps and repetitions; its numbers are for
these tests only and are never compared.
"""

import json
import os
import subprocess
import sys

import pytest

from bench.compare import compare, verdict
from bench.harness import END_TO_END, ROOT, benchmark_spec
from bench.layers import LEDGER
from bench.measure import CAL_REFERENCE_S, calibrate
from bench.workloads import DEFINITIONS, Workload


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke", "--seed", "0",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return out, proc.stdout, json.loads((out / "results.json").read_text())


def test_smoke_run_reports_every_benchmark_metric(smoke):
    _out, stdout, results = smoke
    spec = benchmark_spec()
    assert {w["name"] for w in spec["workloads"]} == set(DEFINITIONS)
    assert set(results["workloads"]) == set(DEFINITIONS)
    for name, doc in results["workloads"].items():
        s = doc["samples"]
        # each timing is its raw reading at the reference host speed
        for i, raw in enumerate(s["sweep_raw_s"]):
            cal = (s["cal_s"][i] + s["cal_s"][i + 1]) / 2
            assert s["sweep_s"][i] == pytest.approx(
                raw * CAL_REFERENCE_S / cal
            )
        for m in spec["end_to_end"]:
            got = doc["end_to_end"][m["name"]]
            assert got["unit"] == m["unit"] == END_TO_END[m["name"]]
            assert got["value"] > 0, (name, m["name"])
            assert f"{name:<14}{m['name']:<13}" in stdout
        assert doc["end_to_end"]["fail_ratio"]["value"] == 0, doc["checks"]
        for m in spec["per_layer"]:
            assert LEDGER[m["name"]] == (m["unit"], m["better"])
            assert doc["per_layer"][m["name"]] is not None, (name, m["name"])
        assert doc["per_layer"]["bench.unaccounted_share"] <= 0.05
    host = results["host"]
    assert host["code_version_salt"] and host["nproc"] >= 1


def test_report_renders_the_traced_pass(smoke, tmp_path):
    out, _stdout, _results = smoke
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "report",
         str(out / "trace" / "fig1-cold"), "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    names = report["trace"]["span_names"]
    for span in ("bench.serial_pass", "md.capture", "des.replay",
                 "sweep", "fanout", "shard"):
        assert names.get(span), span


def test_calibrate_restores_the_affinity_mask():
    # pool workers inherit the mask, so a pinned one would serialize them
    mask = os.sched_getaffinity(0)
    assert calibrate(sorted(mask)) > 0
    assert os.sched_getaffinity(0) == mask


def _doc(value, failed=0):
    return {"workloads": {"w": {
        "end_to_end": {
            name: {"value": value} for name in ("sweep_s", "cpu_s",
                                                "setup_s", "peak_rss_mb")
        },
        "failed": failed,
    }}}


def test_compare_improved_on_nine_of_ten_wins():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]
    change = [0.80] * 9 + [1.05]
    assert verdict(parent, change, 0.1) == "improved"
    # eight wins of ten is not enough
    assert verdict(parent, [0.80] * 8 + [1.05] * 2, 0.1) == "unchanged"


def test_compare_unresolved_when_parent_spread_exceeds_bound():
    parent = [0.70, 1.30, 0.80, 1.20, 1.00, 0.75, 1.25, 0.90, 1.10, 1.00]
    change = [0.95, 1.05, 1.00, 0.90, 1.10, 1.00, 0.85, 1.15, 1.00, 1.02]
    assert verdict(parent, change, 0.1) == "unresolved"
    # ... unless every change run reads better than every parent run
    assert verdict(parent, [0.5] * 10, 0.1) == "improved"


def test_compare_regressions():
    assert verdict([1.0] * 5, [1.2] * 5, 0.1) == "regressed"
    assert verdict([1.0] * 5, [1.05] * 5, 0.1) == "unchanged"
    spec = benchmark_spec()
    parents = [_doc(1.0) for _ in range(5)]
    rows = compare(parents, [_doc(1.0) for _ in range(4)] + [_doc(1.0, 1)],
                   spec)
    assert rows[0]["fail_ratio"] == "regressed"
    assert rows[0]["sweep_s"] == "unchanged"


def test_compare_command_exits_1_on_a_regression(tmp_path):
    paths = {}
    for side, value in (("parent", 1.0), ("change", 1.5)):
        paths[side] = tmp_path / f"{side}.json"
        paths[side].write_text(json.dumps(_doc(value)))
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "compare",
         "--parent", str(paths["parent"]), "--change", str(paths["change"])],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 1, proc.stderr
    assert "regressed" in proc.stdout


def test_corrupted_warm_cache_fails_byte_identity(tmp_path):
    from repro.runcache import RunCache

    wl = Workload(DEFINITIONS["fig1-warm"].smoke(), 0, tmp_path)
    wl.setup(jobs=1)
    root = wl.prepare()
    assert not wl.check(wl.run(root, 1))
    cache = RunCache(wl.fill)
    # a sound entry whose content belongs to another spec
    cache.put(wl.specs[1], cache.get(wl.specs[0]))
    fails = wl.check(wl.run(root, 1))
    assert fails["bytes.rep"] == 1


def test_run_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark must fail, printing no
    result."""
    (tmp_path / "bench").mkdir()
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes()
    )
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig1-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
