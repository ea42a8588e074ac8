"""Tool-accuracy leaderboard: per-cell scoring, grid aggregation, and
the repro.toolerror/1 payload the smoke gate validates."""

import json
import math

import pytest

from repro.obs import (
    leaderboard,
    leaderboard_payload,
    toolerror_cell,
)
from repro.obs.leaderboard import TOOLERROR_SCHEMA
from repro.perftools.timers import VARIANTS
from repro.runcache import RunCache, cached_capture, sweep, toolerror_spec

VECTOR3 = "org.mw.math.Vector3"


@pytest.fixture(scope="module")
def board():
    """A 1x2 grid, executed uncached (small and deterministic)."""
    return leaderboard(
        ["salt"], ["i7-920", "e5450x2"], threads=2, steps=2, cache=None
    )


# ---------------------------------------------------- single-cell score


def test_cell_scores_every_tool():
    trace = cached_capture(None, "al1000", 2)
    cell = toolerror_cell("al1000", 2, "i7-920", trace=trace)
    assert cell["workload"] == "Al-1000"  # alias resolved
    assert cell["machine"] == "i7-920"
    assert len(cell["tools"]) >= 8
    for tool, info in cell["tools"].items():
        assert math.isfinite(info["error"]), tool
        assert info["error"] >= 0.0
        assert info["metric"]
    assert set(VARIANTS) <= set(cell["tools"])
    jx = cell["jxperf"]
    assert jx["top_class"] == VECTOR3
    assert "temp" in jx["top_site"]
    assert jx["dead_store"] > 0


# --------------------------------------------------- grid aggregation


def test_ranks_are_sorted_and_dense(board):
    assert len(board.rows) >= 8
    assert [r.rank for r in board.rows] == list(
        range(1, len(board.rows) + 1)
    )
    means = [r.mean_error for r in board.rows]
    assert means == sorted(means)
    for row in board.rows:
        assert math.isfinite(row.mean_error)
        assert 0.0 <= row.mean_error <= row.worst_error
        assert row.cells == len(board.cells)


def test_mean_errors_aggregate_the_cells(board):
    for row in board.rows:
        errors = [
            cell["tools"][row.tool]["error"] for cell in board.cells
        ]
        assert row.mean_error == pytest.approx(sum(errors) / len(errors))
        assert row.worst_error == pytest.approx(max(errors))


def test_extras_carry_the_headlines(board):
    assert set(board.extras["timers"]) == set(VARIANTS)
    jx = board.extras["jxperf"]
    assert jx["workload"] == "salt"
    assert jx["top_class"] == VECTOR3


def test_row_lookup(board):
    assert board.row("jxperf").tool == "jxperf"
    with pytest.raises(KeyError):
        board.row("oracle")


def test_render_names_every_tool(board):
    text = board.render()
    assert "Tool-accuracy leaderboard" in text
    assert "1 workloads x 2 machines" in text
    for row in board.rows:
        assert row.tool in text
    assert "JXPerf wasteful-op ranking" in text


# ------------------------------------------------------- JSON payload


def test_payload_is_valid_and_consistent(board):
    payload = leaderboard_payload(board)
    assert payload["schema"] == TOOLERROR_SCHEMA
    assert payload["workloads"] == ["salt"]
    assert payload["machines"] == ["i7-920", "e5450x2"]
    assert payload["tools"] == [r.tool for r in board.rows]
    assert len(payload["runs"]) == len(board.cells) * len(board.rows)
    for run in payload["runs"]:
        assert {"tool", "workload", "machine", "error", "metric"} <= set(run)
    board_means = {
        row["tool"]: row["mean_error"] for row in payload["leaderboard"]
    }
    for tool, mean in board_means.items():
        per_cell = [
            r["error"] for r in payload["runs"] if r["tool"] == tool
        ]
        assert mean == pytest.approx(sum(per_cell) / len(per_cell))
    json.dumps(payload)  # JSON-able end to end


# ----------------------------------------------- cache-served replays


def test_leaderboard_is_cache_served_when_warm(tmp_path):
    cache = RunCache(tmp_path / "store")
    cold = leaderboard(["salt"], ["i7-920"], threads=2, steps=2, cache=cache)
    warm = leaderboard(["salt"], ["i7-920"], threads=2, steps=2, cache=cache)
    assert cold.hit_rate == 0.0
    assert warm.hit_rate == 1.0
    assert leaderboard_payload(warm)["leaderboard"] == (
        leaderboard_payload(cold)["leaderboard"]
    )


def test_toolerror_spec_sweeps_and_dedupes(tmp_path):
    cache = RunCache(tmp_path / "store")
    spec = toolerror_spec("salt", 2, 2, "i7-920")
    cold = sweep([spec, spec], cache)
    assert len(cold.artifacts) == 2  # duplicates fan back out
    assert cold.artifacts[0] == cold.artifacts[1]
    assert len(cold.executed) == 1  # ... but execute only once
    warm = sweep([spec], cache)
    assert warm.hit_rate == 1.0
    assert warm.artifacts[0] == cold.artifacts[0]


# ------------------------------------------- fault-aware leaderboard


@pytest.fixture(scope="module")
def fault_board(tmp_path_factory):
    """One clean-vs-straggler cell, cached so repeats stay warm."""
    from repro.obs.leaderboard import fault_leaderboard

    cache = RunCache(tmp_path_factory.mktemp("faultlb"))
    return fault_leaderboard(
        "salt", "i7-920", threads=2, steps=1, cache=cache
    )


def test_fault_board_scores_every_tool_twice(fault_board):
    assert len(fault_board.rows) >= 8
    assert fault_board.faulted_seconds > fault_board.true_seconds
    clean = sorted(r.clean_rank for r in fault_board.rows)
    fault = sorted(r.fault_rank for r in fault_board.rows)
    assert clean == list(range(1, len(fault_board.rows) + 1))
    assert fault == list(range(1, len(fault_board.rows) + 1))


def test_fault_board_rank_shift_consistency(fault_board):
    for row in fault_board.rows:
        assert row.rank_shift == row.clean_rank - row.fault_rank
        assert row.fooled == (row.rank_shift != 0)
    assert fault_board.fooled == [
        r.tool for r in fault_board.rows if r.fooled
    ]


def test_fault_board_payload_and_render(fault_board):
    from repro.obs.leaderboard import (
        FAULT_TOOLERROR_SCHEMA,
        fault_leaderboard_payload,
    )

    payload = fault_leaderboard_payload(fault_board)
    assert payload["schema"] == FAULT_TOOLERROR_SCHEMA
    assert payload["plan"]["name"] == "straggler"
    rows = payload["rows"]
    assert [r["fault_rank"] for r in rows] == sorted(
        r["fault_rank"] for r in rows
    )
    assert sorted(payload["fooled"]) == payload["fooled"]
    text = fault_board.render()
    assert "Fault-aware leaderboard" in text
    for row in fault_board.rows:
        assert row.tool in text


def test_fault_board_is_cache_served_when_warm(tmp_path):
    from repro.obs.leaderboard import fault_leaderboard

    cache = RunCache(tmp_path / "store")
    cold = fault_leaderboard("salt", "i7-920", threads=2, steps=1,
                             cache=cache)
    warm = fault_leaderboard("salt", "i7-920", threads=2, steps=1,
                             cache=cache)
    assert cold.hit_rate == 0.0
    assert warm.hit_rate == 1.0
    assert warm.rows == cold.rows
