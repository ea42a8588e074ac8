"""Crash-safe sweeps: the journal, supervision, and real recovery.

The journal must replay exactly (torn tails tolerated), retries must
converge byte-identically, poisoned specs must quarantine instead of
looping, and a SIGKILLed pool worker must never cost the sweep its
result.
"""

import json
import signal
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.process import ProcessFaultPlan, PoisonedSpec, activate, deactivate
from repro.runcache import (
    RunCache,
    capture_spec,
    dumps_artifact,
    observe_spec,
    resilience,
    sweep,
)
from repro.runcache.key import KINDS, RunSpec
from repro.runcache.resilience import (
    JOURNAL_NAME,
    JOURNAL_SCHEMA,
    Backoff,
    SupervisionPolicy,
    SweepJournal,
    journal_specs,
    load_journal,
    spec_from_canonical,
)

NOSLEEP = {"sleep": lambda _s: None}


@pytest.fixture()
def cache(tmp_path) -> RunCache:
    return RunCache(tmp_path / "store")


@pytest.fixture()
def arm(tmp_path):
    deactivate()

    def _arm(**kwargs):
        plan = ProcessFaultPlan(state_dir=str(tmp_path / "faults"), **kwargs)
        activate(plan)
        return plan

    yield _arm
    deactivate()


def _specs(n=2, workload="salt"):
    return [
        observe_spec(workload, 1, t, "i7-920") for t in range(1, n + 1)
    ]


# ------------------------------------------------------------ the journal


def test_journal_roundtrips_the_lifecycle(tmp_path):
    journal = SweepJournal(tmp_path)
    journal.begin(
        [{"digest": "d1", "label": "a", "spec": {}},
         {"digest": "d2", "label": "b", "spec": {}}],
        jobs=2, resumed=False,
    )
    journal.submitted("d1", label="a", attempt=1)
    journal.started("d1", attempt=1)
    journal.finished("d1", attempt=1)
    journal.submitted("d2", label="b", attempt=1)
    journal.started("d2", attempt=1)
    journal.failed("d2", attempt=1, error="boom", retryable=False)
    journal.quarantined("d2", label="b", attempts=1, error="boom")
    journal.end(executed=1, quarantined=1, resumed=0)
    journal.close()

    state = load_journal(tmp_path)
    assert state is not None and state.skipped == 0
    assert [e["digest"] for e in state.entries] == ["d1", "d2"]
    assert state.completed == {"d1"}
    assert set(state.quarantined) == {"d2"}
    assert state.started == {"d1": 1, "d2": 1}
    assert all(r["schema"] == JOURNAL_SCHEMA for r in state.records)


def test_torn_trailing_line_is_skipped_not_fatal(tmp_path):
    journal = SweepJournal(tmp_path)
    journal.started("d1", attempt=1)
    journal.finished("d1", attempt=1)
    journal.close()
    with open(tmp_path / JOURNAL_NAME, "ab") as fh:
        fh.write(b'{"schema":"repro.sweepjournal/1","kind":"finis')

    state = load_journal(tmp_path)
    assert state.skipped == 1
    assert state.completed == {"d1"}


def test_quarantined_then_finished_counts_completed(tmp_path):
    journal = SweepJournal(tmp_path)
    journal.quarantined("d1", label="a", attempts=3, error="flaky")
    journal.finished("d1", attempt=4)
    journal.close()

    state = load_journal(tmp_path)
    assert state.completed == {"d1"}
    assert state.quarantined == {}


def test_load_journal_missing_dir_is_none(tmp_path):
    assert load_journal(tmp_path / "never-swept") is None


def _every_kind():
    """One spec of every kind, between them setting every optional
    field: params, fault plan, affinities, master affinity, options
    (``load`` included)."""
    from repro.core.costmodel import CostParams
    from repro.faults.plan import FaultPlan, Straggler
    from repro.runcache.sweep import toolerror_spec, trace_spec

    plan = FaultPlan(name="slow", faults=(Straggler(0.0, 1e-3, 1, 0.5),))
    chaos = dict(
        workload="salt", steps=2, seed=1, threads=2, machine="i7-920",
    )
    return [
        capture_spec("salt", 2, seed=3),
        observe_spec(
            "nanocar", 2, 4, "x7560x4", seed=2,
            params=CostParams(cycles_per_flop=2.0), fault_plan=plan,
            affinities=[[0], [1], [2], [3]], master_affinity=[0],
            queue_mode="per-thread", load="table3", chunk_factor=2,
            steal_cost_cycles=300.0,
        ),
        trace_spec("salt", 2, 2, "i7-920", seed=1),
        RunSpec(kind="chaos_ref", options={"gc_model": "chaos"}, **chaos),
        RunSpec(
            kind="chaos_case", fault_plan=plan.to_dict(),
            options={"gc_model": "chaos", "phase_timeout_factor": 20.0},
            **chaos,
        ),
        toolerror_spec("Al-1000", 2, 4, "e5450x2", fault_plan=plan),
    ]


def test_specs_rebuild_from_canonical_journal_entries(tmp_path, cache):
    specs = _specs(2)
    # canonical() normalizes (params expanded, options filled), so the
    # roundtrip contract is digest identity, not dataclass equality
    assert {s.kind for s in _every_kind()} == set(KINDS)
    for spec in specs + _every_kind():
        rebuilt = spec_from_canonical(spec.canonical())
        assert cache.digest(rebuilt) == cache.digest(spec), spec.label()
        assert rebuilt.canonical() == spec.canonical(), spec.label()

    sweep(specs, cache, jobs=1, journal=tmp_path / "journal")
    state = load_journal(tmp_path / "journal")
    rebuilt = journal_specs(state)
    assert sorted(s.label() for s in rebuilt) == sorted(
        s.label() for s in specs
    )
    assert {cache.digest(s) for s in rebuilt} == state.completed


# ----------------------------------------------------------- supervision


def test_backoff_is_seeded_and_bounded():
    def schedule():
        backoff = Backoff()
        return [backoff.next() for _ in range(8)]

    first, second = schedule(), schedule()
    assert first == second  # same seed, same sleep schedule
    assert all(
        resilience.BASE_BACKOFF <= s <= resilience.MAX_BACKOFF
        for s in first
    )


def test_flaky_spec_retries_to_completion(cache, arm, tmp_path):
    arm(flaky_labels=("observe:salt*",), flaky_failures=2)
    result = sweep(
        _specs(1), cache, jobs=1,
        journal=tmp_path / "journal",
        policy=SupervisionPolicy(**NOSLEEP),
    )
    assert result.ok
    assert result.retries == 2
    assert result.artifacts[0] is not None
    state = load_journal(tmp_path / "journal")
    failed = [r for r in state.records if r["kind"] == "failed"]
    assert len(failed) == 2 and all(r["retryable"] for r in failed)


def test_poisoned_spec_is_quarantined_not_retried_forever(
    cache, arm, tmp_path
):
    arm(poison_labels=("observe:salt:s1:x1:*",))
    specs = _specs(2)
    result = sweep(
        specs, cache, jobs=1,
        journal=tmp_path / "journal",
        policy=SupervisionPolicy(**NOSLEEP),
    )
    assert not result.ok
    assert len(result.quarantined) == 1
    bad = result.quarantined[0]
    assert bad.label == specs[0].label()
    assert "PoisonedSpec" in bad.error and bad.attempts == 1
    # poisoned = permanent: no retry burned on it
    assert result.retries == 0
    # the healthy sibling still produced its artifact
    assert result.artifacts[0] is None and result.artifacts[1] is not None
    assert json.loads(json.dumps(bad.to_dict()))["digest"] == bad.digest


def test_plain_sweep_keeps_propagate_semantics(cache, arm):
    arm(poison_labels=("observe:salt*",))
    with pytest.raises(PoisonedSpec):
        sweep(_specs(1), cache, jobs=1)  # no journal: historical behavior


def test_resume_serves_completed_specs_without_reexecution(
    cache, tmp_path
):
    specs = _specs(2)
    journal_dir = tmp_path / "journal"
    first = sweep(specs, cache, jobs=1, journal=journal_dir)
    assert first.ok and len(first.executed) == 2
    started_before = load_journal(journal_dir).started

    resumed = sweep(specs, cache, jobs=1, resume=journal_dir)
    assert resumed.ok
    assert resumed.resumed == 2
    assert resumed.executed == []
    # zero new `started` records for journaled-complete digests
    assert load_journal(journal_dir).started == started_before
    assert [dumps_artifact(a) for a in resumed.artifacts] == [
        dumps_artifact(a) for a in first.artifacts
    ]


def test_resume_carries_quarantine_forward(cache, arm, tmp_path):
    arm(poison_labels=("observe:salt*",))
    journal_dir = tmp_path / "journal"
    specs = _specs(1)
    sweep(
        specs, cache, jobs=1, journal=journal_dir,
        policy=SupervisionPolicy(**NOSLEEP),
    )
    deactivate()  # the fault is gone, but the verdict is journaled

    resumed = sweep(specs, cache, jobs=1, resume=journal_dir)
    assert not resumed.ok
    assert resumed.quarantined[0].carried
    assert resumed.executed == []


def test_sigkilled_pool_worker_does_not_cost_the_sweep(
    cache, arm, tmp_path
):
    """A real unclean worker death (SIGKILL mid-shard): supervision
    restarts the pool and the sweep still converges byte-identically."""
    arm(kill_labels=("observe:salt*",), kill_starts=1)
    specs = _specs(2)
    result = sweep(
        specs, cache, jobs=2,
        journal=tmp_path / "journal",
        policy=SupervisionPolicy(**NOSLEEP),
    )
    assert result.ok
    assert result.pool_restarts >= 1
    assert result.retries + result.pool_restarts >= 1
    deactivate()

    reference = sweep(specs, RunCache(tmp_path / "ref"), jobs=1)
    assert [dumps_artifact(a) for a in result.artifacts] == [
        dumps_artifact(a) for a in reference.artifacts
    ]


def test_worker_deaths_use_up_no_attempts(cache, arm, tmp_path):
    """A spec whose worker dies still gets every attempt the policy
    grants its own execution: death, two flaky failures, then success."""
    arm(
        kill_labels=("observe:salt:s1:x1:*",), kill_starts=1,
        flaky_labels=("observe:salt:s1:x1:*",), flaky_failures=2,
    )
    specs = _specs(2)
    result = sweep(
        specs, cache, jobs=2,
        journal=tmp_path / "journal",
        policy=SupervisionPolicy(max_attempts=3, **NOSLEEP),
    )
    assert result.ok
    if not result.fanout:  # pragma: no cover - single-CPU / no-pool box
        pytest.skip("process pool unavailable; no worker to kill")
    state = load_journal(tmp_path / "journal")
    digest = cache.digest(specs[0])
    trail = [
        (r["kind"], r["attempt"], r.get("error", "").startswith("Injected"))
        for r in state.records
        if r.get("digest") == digest and r["kind"] in ("failed", "finished")
    ]
    assert trail == [
        ("failed", 1, False),  # the worker died
        ("failed", 2, True),
        ("failed", 3, True),
        ("finished", 4, False),
    ]

def test_sweep_pool_starts_workers_by_fork(cache, monkeypatch):
    """The pool's start method is pinned, not the platform default."""
    from repro.runcache import resilience

    opened = []

    class RecordingPool(resilience.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(resilience, "ProcessPoolExecutor", RecordingPool)
    result = sweep(_specs(2), cache, jobs=2)
    assert result.ok and opened
    assert all(
        pool._mp_context.get_start_method() == "fork" for pool in opened
    )


def test_degraded_serial_path_reports_like_the_pooled_path(
    cache, tmp_path, monkeypatch
):
    """When no pool can be created at all, the fallback still runs
    under a fan-out span and fills the same SweepResult fields."""
    from repro.runcache import resilience
    from repro.telemetry import runtime as telemetry_runtime
    from repro.telemetry.merge import load_records

    def no_pool(*_args, **_kwargs):
        raise OSError("process pools are unavailable")

    monkeypatch.setattr(resilience, "ProcessPoolExecutor", no_pool)
    telemetry_runtime.activate(tmp_path / "tel", label="degraded")
    try:
        result = sweep(_specs(2), cache, jobs=2)
    finally:
        telemetry_runtime.deactivate()

    assert result.ok
    assert result.fanout and result.degraded
    records, _ = load_records(tmp_path / "tel")
    spans = {r["name"] for r in records if r.get("kind") == "span"}
    assert {"sweep", "fanout", "shard"} <= spans
    shard = [
        r for r in records
        if r.get("kind") == "span" and r["name"] == "shard"
    ]
    assert all(s["attrs"].get("serial") for s in shard)
    assert any(
        r.get("kind") == "event" and r["name"] == "sweep.degraded"
        for r in records
    )


def test_lost_publish_reruns_under_supervision(cache, arm, tmp_path):
    """A worker's absorbed cache write (ENOSPC) is a failed attempt: the
    re-run is journaled and traced like every other execution."""
    from repro.telemetry import runtime as telemetry_runtime
    from repro.telemetry.merge import load_records

    arm(enospc_kinds=("observe",), enospc_puts=1)
    specs = _specs(2)
    telemetry_runtime.activate(tmp_path / "tel", label="enospc")
    try:
        result = sweep(
            specs, cache, jobs=2,
            journal=tmp_path / "journal",
            policy=SupervisionPolicy(**NOSLEEP),
        )
    finally:
        telemetry_runtime.deactivate()
    assert result.ok
    if not result.fanout:  # pragma: no cover - single-CPU / no-pool box
        pytest.skip("process pool unavailable; no publish to lose")

    records, _ = load_records(tmp_path / "tel")
    executions = [
        r for r in records
        if r.get("kind") == "event"
        and r["name"] in ("cache.put", "cache.put_failed")
        and r["attrs"].get("kind") == "observe"
    ]
    shards = [
        r for r in records
        if r.get("kind") == "span" and r["name"] == "shard"
        and r["attrs"].get("kind") == "observe"
    ]
    state = load_journal(tmp_path / "journal")
    assert len(executions) == len(specs) + 1
    assert sum(state.started.values()) == len(executions)
    assert len(shards) == len(executions)
    failed = [r for r in state.records if r["kind"] == "failed"]
    assert len(failed) == 1 and failed[0]["retryable"]


# ------------------------------------------------------ batch planning


def test_fault_plan_specs_never_batch(tmp_path):
    """Specs with a live fault plan are structurally divergent; the
    group key must keep them on their own even when they are captures."""
    spec = RunSpec(
        kind="capture",
        workload="gas-16",
        steps=2,
        seed=0,
        fault_plan={"kind": "straggler"},
    )
    assert resilience._group_key(spec) is None
    assert resilience._group_key(capture_spec("gas-16", 2)) is not None


# ------------------------------------------------ nested capture claims


@contextmanager
def _wall_clock_guard(seconds):
    """Fail instead of hanging: a claim that is never released would
    hold its dependents back forever."""

    def expired(_signum, _frame):
        raise TimeoutError(f"sweep still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


#: the ways a pending unit's claim on its nested capture ends early
CLAIM_ENDS = {
    # the claimant's worker dies before executing
    "killed": dict(kill_labels=("observe:salt:*",), kill_starts=1),
    # the claimant fails before capturing
    "failed": dict(flaky_labels=("observe:salt:*",), flaky_failures=1),
    # the claimant captures but its put is absorbed, so the next
    # dependent must claim and capture itself
    "absorbed": dict(enospc_kinds=("capture",), enospc_puts=1),
}


@pytest.mark.parametrize("end", sorted(CLAIM_ENDS))
def test_claims_are_released_however_the_claimant_ends(
    cache, arm, tmp_path, end
):
    from repro.telemetry import runtime as telemetry_runtime
    from repro.telemetry.merge import load_records

    arm(**CLAIM_ENDS[end])
    specs = _specs(3, "salt") + _specs(2, "nanocar")
    telemetry_runtime.activate(tmp_path / "tel", label=end)
    try:
        with _wall_clock_guard(120):
            result = sweep(
                specs, cache, jobs=2,
                journal=tmp_path / "journal",
                policy=SupervisionPolicy(**NOSLEEP),
            )
    finally:
        telemetry_runtime.deactivate()
    deactivate()
    assert result.ok and len(result.executed) == len(specs)
    if not result.fanout:  # pragma: no cover - single-CPU / no-pool box
        pytest.skip("process pool unavailable; no claim to release")

    # every retry follows one failed attempt; every started attempt
    # ends once, and each spec finishes on an attempt that started
    state = load_journal(tmp_path / "journal")

    def attempts(*kinds):
        return [
            (r["digest"], r["attempt"]) for r in state.records
            if r["kind"] in kinds
        ]

    started = attempts("started")
    assert len(set(started)) == len(started)
    assert result.retries == len(attempts("failed"))
    assert set(started) <= set(attempts("failed", "finished"))
    finished = attempts("finished")
    assert {d for d, _ in finished} == {cache.digest(s) for s in specs}
    assert len(finished) == len(specs) and set(finished) <= set(started)
    if end != "killed":  # the broken pool may drop a bystander unstarted
        assert sum(state.started.values()) == len(specs) + result.retries

    # each workload's capture is stored once; only the absorbed put
    # costs a second computation
    records, _ = load_records(tmp_path / "tel")
    puts = [
        r["name"] for r in records
        if r.get("kind") == "event" and r["attrs"].get("kind") == "capture"
        and r["name"] in ("cache.put", "cache.put_failed")
    ]
    assert puts.count("cache.put") == 2
    assert puts.count("cache.put_failed") == (end == "absorbed")

    reference = sweep(specs, RunCache(tmp_path / "ref"), jobs=1)
    assert [dumps_artifact(a) for a in result.artifacts] == [
        dumps_artifact(a) for a in reference.artifacts
    ]


# ------------------------------------------- the resume soundness property


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(k=st.integers(0, 4), torn=st.booleans())
def test_property_resumed_sweep_matches_uninterrupted(
    tmp_path_factory, k, torn
):
    """For any interruption point (and optionally a torn final journal
    line), journal-the-prefix then resume-the-full-list produces exactly
    the bytes an uninterrupted fresh sweep produces."""
    specs = [
        observe_spec("salt", 1, t, "i7-920", seed=s)
        for s in (0, 1)
        for t in (1, 2)
    ]
    base = tmp_path_factory.mktemp("resume-prop")
    cache = RunCache(base / "cache")
    journal_dir = base / "journal"

    prefix = sweep(specs[:k], cache, jobs=1, journal=journal_dir)
    assert prefix.ok
    if torn:
        with open(journal_dir / JOURNAL_NAME, "ab") as fh:
            fh.write(b'{"schema":"repro.sweepjournal/1","kind":"sta')

    resumed = sweep(specs, cache, jobs=1, resume=journal_dir)
    reference = sweep(specs, RunCache(base / "ref"), jobs=1)

    assert resumed.ok
    assert resumed.resumed == len({cache.digest(s) for s in specs[:k]})
    assert [dumps_artifact(a) for a in resumed.artifacts] == [
        dumps_artifact(a) for a in reference.artifacts
    ]

