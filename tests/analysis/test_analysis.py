"""Tests for load-balance analysis and reports."""

import numpy as np
import pytest

from repro.analysis import (
    analyze_run,
    ascii_bar_chart,
    fig2_heatmap,
    format_table,
    skew_statistics,
    table1,
    table2,
)
from repro.core import SimulatedParallelRun, capture_trace
from repro.machine import CORE_I7_920, MACHINES, SimMachine
from repro.workloads import BUILDERS, build_salt


def test_skew_statistics():
    s = skew_statistics([1.0, 2.0, 3.0, 4.0])
    assert s.mean == pytest.approx(2.5)
    assert s.max == 4.0
    assert s.count == 4
    empty = skew_statistics([])
    assert empty.count == 0 and empty.mean == 0.0


def test_analyze_run_fields():
    wl = build_salt(seed=2)
    trace = capture_trace(wl, 6)
    machine = SimMachine(CORE_I7_920, seed=2)
    res = SimulatedParallelRun(
        trace, wl.system.n_atoms, machine, 4, name="salt"
    ).run()
    report = analyze_run(res)
    assert len(report.worker_busy) == 4
    assert report.aggregate_imbalance >= 0.0
    assert "forces" in report.phase_skews
    assert report.barrier_loss > 0.0
    text = report.render()
    assert "aggregate imbalance" in text
    assert "barrier loss" in text


def test_hides_imbalance_detector():
    from repro.analysis.loadbalance import LoadBalanceReport, SkewStats

    report = LoadBalanceReport(
        worker_busy=[1.0, 1.01, 0.99, 1.0],  # aggregate looks balanced
        aggregate_imbalance=0.01,
        phase_skews={
            "forces": SkewStats(
                mean=0.05, p50=0.05, p95=0.09, max=0.12, count=100
            )
        },
        barrier_loss=5.0,
        steps=100,
    )
    assert report.hides_imbalance("forces")


def test_format_table_and_table1():
    text = format_table([{"A": 1, "B": "xy"}, {"A": 22, "B": "z"}])
    assert "A" in text and "22" in text
    t1 = table1([BUILDERS["salt"]()])
    assert "salt" in t1 and "Ionic" in t1


def test_table2_renders_all_machines():
    text = table2(MACHINES.values())
    assert "Intel Core i7 920" in text
    assert "4 x (24 MB shared/8 cores)" in text


def test_ascii_bar_chart():
    text = ascii_bar_chart(
        {"salt": [1.0, 3.63]}, [1, 4], title="Speedup"
    )
    assert "Speedup" in text and "3.63" in text


def test_fig2_heatmap_render():
    mat = np.array([[0.9, 0.05, 0.05, 0.0], [0.0, 0.0, 0.0, 1.0]])
    text = fig2_heatmap(mat, ["w0", "w1"])
    lines = text.splitlines()
    assert "#" in lines[2]  # w0 dominated by PU 0
    assert lines[3].rstrip().endswith("#")  # w1 on the last PU
