"""Sweep-level batching: an ensemble batch is one unit of work for the
supervisor, and it must be invisible to every cache/journal consumer —
byte-equal artifacts under the runs' own digests, the journal trail a
one-spec sweep leaves, and a transparent split into single-spec units
when a batch cannot be vectorized."""

import json
from collections import defaultdict

from repro.ensemble import routing
from repro.ensemble.engine import EnsembleUnsupported
from repro.faults.process import ProcessFaultPlan, activate, deactivate
from repro.runcache import (
    RunCache,
    SupervisionPolicy,
    capture_spec,
    dumps_artifact,
    execute_spec,
    observe_spec,
    sweep,
)
from repro.runcache.key import RunSpec
from repro.runcache.resilience import JOURNAL_NAME

WORKLOAD = "gas-16"
STEPS = 2
N_RUNS = 6


def capture_specs():
    return [
        capture_spec(WORKLOAD, STEPS, seed=seed)
        for seed in range(N_RUNS)
    ]


def assert_cache_matches_scalar(cache: RunCache, specs):
    """Every spec's cached bytes equal a from-scratch scalar run's."""
    for spec in specs:
        data = cache.get_bytes(spec)
        assert data is not None
        assert data == dumps_artifact(execute_spec(spec))


def journal_trail(root):
    """Per digest: the ``(kind, attempt)`` sequence of its records."""
    trail = defaultdict(list)
    for line in (root / JOURNAL_NAME).read_text().splitlines():
        record = json.loads(line)
        if "attempt" in record:
            trail[record["digest"]].append(
                (record["kind"], record["attempt"])
            )
    return dict(trail)


# ------------------------------------------------- capture-batch units


def test_ensemble_sweep_matches_scalar_cache_and_hits(tmp_path):
    specs = capture_specs()
    cache = RunCache(tmp_path / "ensemble")

    ens = sweep(specs, cache, jobs=1)

    assert ens.hit_flags == [False] * N_RUNS
    assert ens.ensemble_batches == 1
    assert ens.ensemble_runs == N_RUNS
    assert_cache_matches_scalar(cache, specs)

    # every run published under its own digest: a resweep is all hits
    warm = sweep(specs, cache, jobs=1)
    assert warm.hit_flags == [True] * N_RUNS
    assert warm.executed == []
    assert warm.ensemble_runs == 0


def test_single_spec_stays_on_scalar_path(tmp_path):
    """A batch below MIN_BATCH gains nothing — it must not be batched."""
    cache = RunCache(tmp_path / "store")
    result = sweep([capture_spec(WORKLOAD, STEPS, seed=0)], cache, jobs=1)
    assert result.ensemble_batches == 0
    assert cache.get_bytes(capture_spec(WORKLOAD, STEPS, seed=0))


def test_journal_records_are_equivalent_across_paths(tmp_path):
    """Resume and supervision read the journal; a batched run must
    leave exactly the trail a one-spec sweep of it leaves."""
    specs = capture_specs()
    cache = RunCache(tmp_path / "store")
    result = sweep(specs, cache, jobs=1, journal=tmp_path / "ensemble")
    assert result.ensemble_runs == N_RUNS
    batched = journal_trail(tmp_path / "ensemble")

    scalar = {}
    for i, spec in enumerate(specs):
        root = tmp_path / f"scalar-{i}"
        one = sweep([spec], RunCache(tmp_path / "ref"), jobs=1, journal=root)
        assert one.ensemble_batches == 0
        scalar.update(journal_trail(root))

    assert batched == scalar
    assert set(batched) == {cache.digest(s) for s in specs}
    for trail in batched.values():
        assert trail == [("submitted", 1), ("started", 1), ("finished", 1)]


def test_unsupported_batch_falls_back_to_scalar(tmp_path, monkeypatch):
    """No registered workload naturally trips EnsembleUnsupported at
    the batching layer (they are all reflective-box, unthermostatted),
    so force it: results must still land, bit-equal, with zero batches
    counted — and the split is not a failed attempt."""

    def unsupported(specs):
        raise EnsembleUnsupported("forced by test")

    monkeypatch.setattr(routing, "prepare_batch", unsupported)
    specs = capture_specs()
    cache = RunCache(tmp_path / "fallback")
    result = sweep(specs, cache, jobs=1, journal=tmp_path / "journal")
    assert (result.ensemble_batches, result.ensemble_runs) == (0, 0)
    assert result.ok and result.retries == 0
    assert len(result.executed) == N_RUNS
    for trail in journal_trail(tmp_path / "journal").values():
        assert ("failed", 1) not in trail
        assert trail[-2:] == [("started", 1), ("finished", 1)]
    assert_cache_matches_scalar(cache, specs)


def test_failed_batch_retries_its_runs_one_by_one(tmp_path):
    """An execution error inside a batch is a failed attempt for every
    run in it; the runs then retry as single-spec units."""
    deactivate()
    activate(ProcessFaultPlan(
        state_dir=str(tmp_path / "faults"),
        flaky_labels=("capture:*",), flaky_failures=1,
    ))
    try:
        specs = capture_specs()
        cache = RunCache(tmp_path / "store")
        result = sweep(
            specs, cache, jobs=1, journal=tmp_path / "journal",
            policy=SupervisionPolicy(sleep=lambda _s: None),
        )
    finally:
        deactivate()
    assert result.ok
    assert (result.ensemble_batches, result.ensemble_runs) == (0, 0)
    for trail in journal_trail(tmp_path / "journal").values():
        assert trail == [
            ("submitted", 1), ("started", 1), ("failed", 1),
            ("submitted", 2), ("started", 2), ("finished", 2),
        ]
    assert_cache_matches_scalar(cache, specs)


def test_batch_is_one_pool_unit_beside_single_specs(tmp_path):
    """With other units beside it, a batch runs in a pool worker like
    any single spec; its runs still publish scalar-identical bytes."""
    captures = capture_specs()[:3]
    observes = [observe_spec("salt", 1, t, "i7-920") for t in (1, 2)]
    cache = RunCache(tmp_path / "store")
    result = sweep(captures + observes, cache, jobs=2)
    assert result.ok
    assert result.ensemble_batches == 1
    assert result.ensemble_runs == len(captures)
    assert len(result.executed) == len(captures) + len(observes)
    assert_cache_matches_scalar(cache, captures)


def test_replays_are_not_batched_by_default(tmp_path):
    """Only captures batch: fault-free replays run one spec per unit."""
    specs = [
        RunSpec(
            kind="chaos_ref", workload=WORKLOAD, steps=STEPS,
            seed=seed, threads=threads, machine="i7-920",
        )
        for seed in range(2)
        for threads in (1, 2)
    ]
    result = sweep(specs, RunCache(tmp_path / "store"), jobs=1)
    assert (result.ensemble_batches, result.ensemble_runs) == (0, 0)
    assert len(result.executed) == len(specs)


def test_fault_plan_specs_never_batch(tmp_path):
    """Specs with a live fault plan are structurally divergent; the
    group key must keep them on their own even when they are captures."""
    spec = RunSpec(
        kind="capture",
        workload=WORKLOAD,
        steps=STEPS,
        seed=0,
        fault_plan={"kind": "straggler"},
    )
    assert routing._group_key(spec) is None
    assert routing._group_key(capture_spec(WORKLOAD, STEPS)) is not None
