"""Attribution tests: conservation law, dominance, and report formats.

The heart of the subsystem is an exactly-conserved decomposition: every
worker instant is classified into exactly one bucket class, so
``achieved − T₁/N`` must equal the bucket sum to float round-off — a
property checked here hypothesis-style across thread counts.  The
Al-1000 dominance assertions pin the acceptance behaviour: at one
thread per physical core the gap is owned by work inflation in the
forces phase, and the LJ kernel owns most of that inflation (the
paper's §V cache-pollution finding).
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import capture_trace
from repro.machine import MACHINES
from repro.obs import (
    attribution_csv,
    render_attribution,
    result_to_dict,
)
from repro.obs.attribution import BUCKETS, CLASS_TO_BUCKET, CLASSES
from repro.workloads import BUILDERS
from tests.obs._attribute import attribute

SPEC = MACHINES["i7-920"]

_cache = {}


def cached(workload: str, steps: int = 2):
    """One physics capture + 1-thread baseline per workload, shared by
    every hypothesis example (the expensive part of each attribution)."""
    key = (workload, steps)
    if key not in _cache:
        wl = BUILDERS[workload]()
        trace = capture_trace(wl, steps)
        base = attribute(wl, 1, spec=SPEC, steps=steps, trace=trace)
        _cache[key] = (wl, trace, base.baseline)
    return _cache[key]


# -- conservation property -------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(
    n_threads=st.integers(min_value=1, max_value=8),
    workload=st.sampled_from(["salt", "nanocar"]),
)
def test_buckets_conserve_gap(n_threads, workload):
    """ideal − achieved == Σ buckets to 1e-6 relative, any thread count."""
    wl, trace, baseline = cached(workload)
    res = attribute(
        wl, n_threads, spec=SPEC, steps=2, trace=trace, baseline=baseline
    )
    scale = max(abs(res.achieved_seconds), 1e-12)
    assert res.conservation_error() <= 1e-6 * scale
    assert abs(res.gap_seconds - sum(res.buckets.values())) <= 1e-6 * scale
    # per-phase cells sum to the same total
    cells = sum(v for pb in res.by_phase.values() for v in pb.values())
    assert cells == pytest.approx(res.bucket_total)


def test_one_thread_has_zero_gap():
    wl, trace, baseline = cached("salt")
    res = attribute(wl, 1, spec=SPEC, steps=2, trace=trace, baseline=baseline)
    assert res.gap_seconds == pytest.approx(0.0, abs=1e-15)
    assert res.achieved_speedup == pytest.approx(1.0)


def test_class_partition_is_total():
    """Every class maps to a display bucket and nothing else exists."""
    assert set(CLASS_TO_BUCKET) == set(CLASSES)
    assert set(CLASS_TO_BUCKET.values()) == set(BUCKETS)


# -- acceptance: why doesn't Al-1000 scale? --------------------------------


@pytest.fixture(scope="module")
def al1000_x4():
    return attribute("Al-1000", 4, spec=SPEC, steps=4)


def test_al1000_blames_lj_work_inflation(al1000_x4):
    res = al1000_x4
    phase, bucket = res.dominant()
    assert bucket == "work_inflation"
    assert phase == "forces"
    assert res.kernel_inflation, "forces inflation must be kernel-attributed"
    assert max(res.kernel_inflation, key=res.kernel_inflation.get) == "lj"
    # kernel attribution redistributes the forces-phase inflation
    assert sum(res.kernel_inflation.values()) == pytest.approx(
        res.by_phase["forces"]["work_inflation"]
    )


def test_al1000_speedup_below_ideal(al1000_x4):
    res = al1000_x4
    assert 1.0 < res.achieved_speedup < 4.0
    assert res.gap_seconds > 0
    assert res.speedup_bound() >= res.achieved_speedup


# -- report formats --------------------------------------------------------


def test_render_report_mentions_everything(al1000_x4):
    text = render_attribution(al1000_x4)
    for needle in (
        "speedup-loss attribution", "Al-1000", "work_inflation",
        "forces", "lj", "critical path", "gap to ideal",
    ):
        assert needle in text, needle


def test_csv_long_form(al1000_x4):
    csv = attribution_csv([al1000_x4])
    lines = csv.splitlines()
    assert lines[0] == "workload,machine,threads,phase,bucket,seconds"
    assert len(lines) > 5
    assert all(line.count(",") == 5 for line in lines[1:])


def test_result_to_dict_roundtrips_json(al1000_x4):
    import json

    d = result_to_dict(al1000_x4)
    for key in (
        "workload", "threads", "buckets", "by_phase", "kernel_inflation",
        "critical_path_seconds", "speedup_bound", "conservation_error",
        "dominant_phase", "dominant_bucket",
    ):
        assert key in d, key
    json.dumps(d)  # must be plain-JSON serializable
    assert d["dominant_bucket"] == "work_inflation"
    assert d["dominant_phase"] == "forces"


def test_folded_stacks_format(al1000_x4):
    lines = al1000_x4.folded_stacks()
    assert len(lines) >= 5
    for line in lines:
        stack, count = line.rsplit(" ", 1)
        assert int(count) >= 0
        assert stack.count(";") >= 2  # workload;phase;kernel;state


# -- degenerate inputs -----------------------------------------------------
#
# An N=1 run has zero gap, an idle machine has zero achieved seconds,
# and a zero-work capture inflates no kernel at all.  Every percentage
# in the report divides by one of those quantities; the guards must
# yield flat zeros, never a ZeroDivisionError or a NaN leaking into
# the rendered text.


def _degenerate_result(**overrides):
    from repro.obs.attribution import AttributionResult
    from repro.obs.critical_path import CriticalPath

    kwargs = dict(
        workload="empty",
        machine="i7-920",
        n_threads=1,
        steps=0,
        baseline_seconds=0.0,
        achieved_seconds=0.0,
        by_phase={},
        classes_by_phase={},
        kernel_inflation={},
        critical_path=CriticalPath(
            seconds=0.0, chain=[], nodes={}, total_work_seconds=0.0
        ),
    )
    kwargs.update(overrides)
    return AttributionResult(**kwargs)


def test_render_zero_run_produces_no_nan_or_inf():
    res = _degenerate_result()
    assert res.gap_seconds == 0.0
    assert res.bucket_total == 0.0
    assert res.conservation_error() == 0.0
    text = render_attribution(res)
    # \b keeps "domiNANt" from matching; bare nan/inf tokens would
    assert not re.search(r"\bnan\b", text.lower())
    # speedup_bound is legitimately inf (empty critical path); the
    # percentage lines must not be
    assert "0.0% of achieved" in text
    assert "0.0% of the gap" in text


def test_render_zero_kernel_inflation_shares():
    # kernels present but none inflated: the share divides by a zero
    # total and must report flat 0.0% for each
    res = _degenerate_result(
        kernel_inflation={"lj": 0.0, "coulomb": 0.0},
        achieved_seconds=1.0,
        baseline_seconds=1.0,
    )
    text = render_attribution(res)
    assert "lj 0.000 ms (0.0%)" in text
    assert "coulomb 0.000 ms (0.0%)" in text


def test_render_one_thread_real_run_is_finite():
    # the realistic degenerate: a real 1-thread attribution has a
    # ~zero gap, so every "% of the gap" guard is exercised end to end
    wl, trace, baseline = cached("salt")
    res = attribute(wl, 1, spec=SPEC, steps=2, trace=trace, baseline=baseline)
    text = render_attribution(res)
    assert not re.search(r"\bnan\b|\binf\b", text.lower())
    assert "speedup-loss attribution: salt x1" in text


def test_zero_gap_dominant_percentage_is_zero():
    res = _degenerate_result(
        by_phase={"forces": {"work_inflation": 0.0}},
        achieved_seconds=2.0,
        baseline_seconds=2.0,
    )
    assert res.dominant() == ("forces", "work_inflation")
    text = render_attribution(res)
    assert "(0.0% of the gap)" in text
