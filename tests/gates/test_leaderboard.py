"""Leaderboard gate: every modeled profiler scored against ground
truth over the 3 x 3 workload x machine grid (4 threads, 4 steps), run
cold and then warm through one cache.  At least 8 tools rank with
consistent mean errors, JXPerf's top wasteful-op site is the
``Vector3`` temporary churn (§V-B), timer placement measurably distorts
phase times, and the warm grid is served from the cache.  The payload
and its rendered report go under ``benchmarks/out/test_leaderboard``."""

import json
import math

from repro.obs.leaderboard import leaderboard, leaderboard_payload
from repro.runcache import RunCache
from repro.targets import (
    LEADERBOARD_GRID,
    LEADERBOARD_MIN_HIT_RATE,
    LEADERBOARD_MIN_TIMER_GAP,
    LEADERBOARD_MIN_TOOLS,
    LEADERBOARD_TOP_CLASS,
)
from repro.telemetry import runtime as telemetry_runtime
from repro.telemetry.report import LEADERBOARD_NAME, write_report
from tests.gates._checks import assert_envelope, finite_nonnegative, missing


def test_leaderboard(shipped_dir, tmp_path):
    cache = RunCache(tmp_path)
    telemetry_runtime.activate(str(shipped_dir), label="leaderboard")
    try:
        leaderboard(threads=4, steps=4, seed=0, cache=cache)
        warm = leaderboard(threads=4, steps=4, seed=0, cache=cache)
    finally:
        telemetry_runtime.deactivate()
    payload = leaderboard_payload(warm)
    (shipped_dir / LEADERBOARD_NAME).write_text(
        json.dumps(payload, indent=1) + "\n", encoding="utf-8"
    )
    write_report(shipped_dir)

    assert_envelope(payload, "repro.toolerror/")
    runs = payload["runs"]
    for run in runs:
        assert not missing(
            run, {"tool", "workload", "machine", "error", "metric"}
        ), run
        assert finite_nonnegative(run["error"]), run
    n_workloads, n_machines = LEADERBOARD_GRID
    assert len(payload["workloads"]) >= n_workloads
    assert len(payload["machines"]) >= n_machines
    cells = {(r["workload"], r["machine"]) for r in runs}
    assert len(cells) == len(payload["workloads"]) * len(payload["machines"])

    board = payload["leaderboard"]
    assert len(board) >= LEADERBOARD_MIN_TOOLS, len(board)
    means = [row["mean_error"] for row in board]
    assert all(finite_nonnegative(m) for m in means)
    assert means == sorted(means), "leaderboard not sorted by mean_error"
    for row in board:
        assert not missing(
            row, {"rank", "tool", "mean_error", "worst_error", "metric"}
        ), row
        errors = [r["error"] for r in runs if r["tool"] == row["tool"]]
        assert errors, row["tool"]
        assert math.isclose(
            row["mean_error"], sum(errors) / len(errors),
            rel_tol=1e-6, abs_tol=1e-9,
        ), row["tool"]
    assert set(payload["tools"]) == {row["tool"] for row in board}

    jxperf = payload["jxperf"]
    assert jxperf["top_class"] == LEADERBOARD_TOP_CLASS, jxperf
    assert "temp" in jxperf["top_site"], jxperf
    timers = payload["timers"]
    gap = timers["timer-outside"] - timers["timer-sync"]
    assert gap >= LEADERBOARD_MIN_TIMER_GAP, timers
    assert payload["cache"]["hit_rate"] >= LEADERBOARD_MIN_HIT_RATE
