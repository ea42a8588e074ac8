"""Attribution gate: the paper grid (salt / nanocar / Al-1000 at 1, 2,
4 and 8 threads on the i7-920, 5 steps) conserves the speedup-loss gap
in every run, Al-1000 at one thread per core blames LJ work inflation
in the forces phase (§V), and ``repro attribute`` on that cell writes a
well-formed flamegraph."""

import pytest

from repro.cli import main
from repro.runcache import RunCache, attribution_sweep
from repro.targets import (
    ATTRIBUTION_AL1000,
    ATTRIBUTION_REL_TOL,
    FOLDED_MIN_LINES,
)
from tests.gates._checks import assert_envelope, assert_folded, missing

RUN_KEYS = {
    "workload", "threads", "baseline_seconds", "ideal_seconds",
    "achieved_seconds", "speedup", "gap_seconds", "buckets",
    "by_phase", "critical_path_seconds", "speedup_bound",
    "conservation_error", "dominant_phase", "dominant_bucket",
}


@pytest.fixture(scope="module")
def payload(tmp_path_factory):
    payload, _stats = attribution_sweep(
        workloads=["salt", "nanocar", "al1000"],
        threads=[1, 2, 4, 8],
        spec="i7-920",
        steps=5,
        seed=0,
        cache=RunCache(tmp_path_factory.mktemp("attribution-cache")),
    )
    return payload


def test_buckets_conserve_the_gap(payload):
    assert_envelope(payload, "repro.attribution.bench/")
    for run in payload["runs"]:
        label = f"{run['workload']} x{run['threads']}"
        assert not missing(run, RUN_KEYS), label
        assert run["buckets"], f"{label}: no buckets"
        gap = run["achieved_seconds"] - (
            run["baseline_seconds"] / run["threads"]
        )
        scale = max(abs(run["achieved_seconds"]), 1e-12)
        total = sum(run["buckets"].values())
        assert abs(total - gap) <= ATTRIBUTION_REL_TOL * scale, (
            f"{label}: buckets sum {total!r} != gap {gap!r}"
        )
        if run["threads"] == 1:
            assert abs(gap) <= ATTRIBUTION_REL_TOL * scale, label
        assert run["critical_path_seconds"] >= 0, label


def test_al1000_blames_lj_work_inflation(payload):
    want = ATTRIBUTION_AL1000
    (run,) = [
        r for r in payload["runs"]
        if r["workload"] == "Al-1000" and r["threads"] == want["threads"]
    ]
    assert run["dominant_bucket"] == want["bucket"]
    assert run["dominant_phase"] == want["phase"]
    kernels = run["kernel_inflation"]
    assert max(kernels, key=kernels.get) == want["kernel"], kernels


def test_al1000_flamegraph(tmp_path):
    main([
        "attribute", "--workload", "al1000", "--threads", "4",
        "--steps", "4", "--out", str(tmp_path),
    ])
    assert_folded(tmp_path / "flamegraph.folded", FOLDED_MIN_LINES)
