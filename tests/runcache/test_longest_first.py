"""The supervisor starts a sweep's longest units first.

A replay's cost grows with ``threads * steps``, so ``supervise`` orders
its units by that key, descending and stable.  The order must not
change what a sweep computes: each nested capture is still computed
and stored once, and every artifact is byte-equal to a ``jobs=1``
sweep's.
"""

import pytest

from repro.runcache import (
    RunCache,
    dumps_artifact,
    nested_capture,
    observe_spec,
    sweep,
)
from repro.runcache.resilience import load_journal

# (workload, steps, threads) in miss order; the cost keys (threads x
# steps) are 2, 8, 8, 2, 16, 6 — two ties, broken by miss order
_DISTINCT = [
    ("nanocar", 1, 2),
    ("salt", 2, 4),
    ("Al-1000", 1, 8),
    ("nanocar", 2, 1),
    ("salt", 1, 16),
    ("Al-1000", 2, 3),
]


def _cost(spec):
    return spec.threads * spec.steps


def _pooled(specs, tmp_path):
    from repro.telemetry import runtime as telemetry_runtime
    from repro.telemetry.merge import load_records

    cache = RunCache(tmp_path / "cold")
    telemetry_runtime.activate(tmp_path / "tel", label="order")
    try:
        result = sweep(specs, cache, jobs=2, journal=tmp_path / "journal")
    finally:
        telemetry_runtime.deactivate()
    assert result.ok and len(result.executed) == len(specs)
    if not result.fanout:  # pragma: no cover - single-CPU / no-pool box
        pytest.skip("process pool unavailable; sweep fell back to serial")
    by_digest = {cache.digest(spec): spec for spec in specs}
    submitted = [
        by_digest[r["digest"]]
        for r in load_journal(tmp_path / "journal").records
        if r["kind"] == "submitted"
    ]
    records, _ = load_records(tmp_path / "tel")
    capture_puts = [
        r["attrs"]["digest"] for r in records
        if r.get("kind") == "event" and r["name"] == "cache.put"
        and r["attrs"].get("kind") == "capture"
    ]
    reference = sweep(specs, RunCache(tmp_path / "ref"), jobs=1)
    assert [dumps_artifact(a) for a in result.artifacts] == [
        dumps_artifact(a) for a in reference.artifacts
    ]
    return result, submitted, capture_puts


def _capture_digests(specs, tmp_path):
    cache = RunCache(tmp_path / "cold")
    return sorted({cache.digest(nested_capture(s))[:12] for s in specs})


def test_pooled_sweep_submits_longest_first(tmp_path):
    specs = [
        observe_spec(w, steps, n, "x7560x4") for w, steps, n in _DISTINCT
    ]
    result, submitted, capture_puts = _pooled(specs, tmp_path)
    # no two units share a capture, so none is held back: the journal
    # shows the whole sorted order
    assert submitted == sorted(specs, key=_cost, reverse=True)
    assert [_cost(s) for s in submitted] == [16, 8, 8, 6, 2, 2]
    assert submitted[1:3] == [specs[1], specs[2]]  # stable ties
    assert sorted(capture_puts) == _capture_digests(specs, tmp_path)
    # executed stays in miss order
    assert result.executed == [
        RunCache(tmp_path / "cold").digest(s) for s in specs
    ]


def test_largest_dependent_claims_each_shared_capture(tmp_path):
    specs = [
        observe_spec(w, 1, n, "x7560x4")
        for n in (1, 4, 16, 2) for w in ("salt", "nanocar")
    ]
    _result, submitted, capture_puts = _pooled(specs, tmp_path)
    assert sorted(submitted, key=lambda s: s.label()) == sorted(
        specs, key=lambda s: s.label()
    )
    for w in ("salt", "nanocar"):
        first = next(s for s in submitted if s.workload == w)
        assert first.threads == 16  # the claimant is the longest unit
    # each nested capture is computed and stored once
    assert sorted(capture_puts) == _capture_digests(specs, tmp_path)
