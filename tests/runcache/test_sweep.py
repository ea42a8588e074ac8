"""Sweep orchestration: dedupe, memoization, payload parity with the
uncached benches, and the byte-identity property behind the whole
design — a cache hit IS a fresh run."""

import gc
import importlib
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runcache import (
    RunCache,
    attribution_sweep,
    cached_capture,
    capture_spec,
    dumps_artifact,
    execute_spec,
    nested_capture,
    observe_spec,
    run_and_store,
    sweep,
    toolerror_spec,
    trace_spec,
)


@pytest.fixture()
def cache(tmp_path) -> RunCache:
    return RunCache(tmp_path / "store")


# ------------------------------------------- hit == fresh run, by bytes


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kind=st.sampled_from(["capture", "observe"]),
    steps=st.integers(1, 2),
    threads=st.integers(1, 2),
    seed=st.integers(0, 1),
)
def test_property_cache_hit_is_byte_identical_to_fresh_run(
    tmp_path_factory, kind, steps, threads, seed
):
    """For any small spec: miss-then-hit returns exactly the bytes a
    from-scratch execution produces.  This is the soundness property
    that lets cached artifacts replace re-simulation everywhere."""
    if kind == "capture":
        spec = capture_spec("salt", steps)
    else:
        spec = observe_spec("salt", steps, threads, "i7-920", seed=seed)
    cache = RunCache(tmp_path_factory.mktemp("prop"))
    first, hit1 = run_and_store(cache, spec)
    cached, hit2 = run_and_store(cache, spec)
    assert (hit1, hit2) == (False, True)
    fresh = execute_spec(spec)
    assert dumps_artifact(cached) == dumps_artifact(fresh)
    assert dumps_artifact(first) == dumps_artifact(fresh)


def test_trace_artifact_is_byte_identical_on_hit(cache):
    spec = trace_spec("salt", 2, 2, "i7-920")
    miss, _ = run_and_store(cache, spec)
    hit, was_hit = run_and_store(cache, spec)
    assert was_hit
    assert dumps_artifact(hit) == dumps_artifact(miss)
    assert set(hit["files"]) == {
        "trace.json", "metrics.json", "metrics.csv"
    }
    assert "traced salt" in hit["summary"]


# ---------------------------------------------------------- orchestrator


def test_sweep_dedupes_identical_specs(cache):
    specs = [capture_spec("salt", 1)] * 3
    result = sweep(specs, cache, jobs=1)
    assert len(result.artifacts) == 3
    assert len(result.executed) == 1  # one distinct digest ran
    assert result.hit_flags == [False, False, False]
    warm = sweep(specs, cache, jobs=1)
    assert warm.hit_flags == [True, True, True]
    assert warm.hit_rate == 1.0
    assert warm.executed == []


def test_sweep_without_cache_still_dedupes(tmp_path):
    specs = [capture_spec("salt", 1), capture_spec("salt", 1)]
    result = sweep(specs, cache=None, jobs=1)
    assert result.hits == 0
    assert len(result.executed) == 1
    assert result.artifacts[0] is result.artifacts[1]


def test_sweep_artifact_for_unknown_spec_raises(cache):
    result = sweep([capture_spec("salt", 1)], cache, jobs=1)
    with pytest.raises(KeyError):
        result.artifact_for(capture_spec("nanocar", 1))


def test_cached_capture_none_degrades_to_plain_capture():
    from repro.core.simulate import capture_trace
    from repro.workloads import BUILDERS

    via_none = cached_capture(None, "salt", 1)
    plain = capture_trace(BUILDERS["salt"](), 1)
    assert dumps_artifact(via_none) == dumps_artifact(plain)


def test_cached_capture_publishes_and_reuses(cache):
    first = cached_capture(cache, "salt", 1)
    assert cache.contains(capture_spec("salt", 1))
    again = cached_capture(cache, "salt", 1)
    assert dumps_artifact(first) == dumps_artifact(again)


# ------------------------------------------------------- payload parity


def _uncached_attribution_payload(workloads, threads, *, steps, seed):
    """The attribution sweep without the cache, as an oracle: one
    in-process capture and one 1-thread baseline per workload, shared
    by every thread count."""
    from repro.core.simulate import capture_trace
    from repro.machine import CORE_I7_920
    from repro.obs.attribution import (
        BENCH_SCHEMA,
        BUCKETS,
        observe_run,
        result_to_dict,
    )
    from repro.workloads import BUILDERS, resolve_workload
    from tests.obs._attribute import attribute

    runs = []
    names = [resolve_workload(w) for w in workloads]
    for name in names:
        wl = BUILDERS[name]()
        trace = capture_trace(wl, steps)
        baseline = observe_run(
            trace, wl.system.n_atoms, CORE_I7_920, 1,
            seed=seed, name=wl.name, workload=wl.name,
        )
        for n in threads:
            res = attribute(
                wl, n, spec=CORE_I7_920, steps=steps, seed=seed,
                trace=trace, baseline=baseline,
            )
            runs.append(result_to_dict(res))
    return {
        "schema": BENCH_SCHEMA,
        "machine": CORE_I7_920.name,
        "steps": steps,
        "seed": seed,
        "workloads": names,
        "threads": list(threads),
        "buckets": list(BUCKETS),
        "runs": runs,
    }


def test_attribution_sweep_payload_matches_uncached_bench(cache):
    kwargs = dict(workloads=["salt"], threads=[1, 2], steps=2, seed=0)
    expected = _uncached_attribution_payload(**kwargs)
    cold, cold_stats = attribution_sweep(cache=cache, jobs=1, **kwargs)
    warm, warm_stats = attribution_sweep(cache=cache, jobs=1, **kwargs)
    assert cold == expected
    assert warm == expected
    assert cold_stats.hit_rate == 0.0
    assert warm_stats.hit_rate == 1.0


def test_attribute_cached_matches_uncached(cache):
    from repro.obs import result_to_dict
    from repro.runcache import attribute_grid, attribution_specs
    from tests.obs._attribute import attribute

    plain = attribute("salt", 2, spec="i7-920", steps=2, seed=0)
    specs = attribution_specs(["salt"], [2], "i7-920", steps=2, seed=0)
    result = sweep(specs, cache, jobs=1)
    (cached,) = attribute_grid(result.specs, result.artifacts, [2])
    assert result_to_dict(cached) == result_to_dict(plain)


def test_machine_key_rejects_unknown_machine():
    from repro.runcache.sweep import machine_key

    with pytest.raises(ValueError, match="unknown machine"):
        machine_key("cray-1")


# ------------------------------------------------ pooled sweep accounting


def test_parallel_sweep_captures_the_nested_capture_once(cache):
    specs = [
        observe_spec("salt", 1, n, "i7-920", seed=0) for n in (1, 2, 3, 4)
    ]
    result = sweep(specs, cache, jobs=2)
    assert result.hits == 0
    assert len(result.executed) == len(specs)
    if not result.fanout:  # pragma: no cover - single-CPU / no-pool box
        pytest.skip("process pool unavailable; sweep fell back to serial")
    # the store's cross-process counters: the parent's lookup pass
    # misses the four observes; a shard's own spec is not looked up
    # again, so the one further miss is the nested capture's load by
    # the shard that computes it.  The shards held back until it was
    # stored load it as a hit, so it is captured once.
    assert cache.stats().misses == len(specs) + 1
    # a warm re-sweep is served from the parent's cache: no fan-out
    warm = sweep(specs, cache, jobs=2)
    assert warm.hit_rate == 1.0
    assert warm.fanout is False
    assert cache.stats().misses == len(specs) + 1


def test_pooled_sweep_reads_its_units_back_uncounted(cache, tmp_path):
    """The parent reads a pool unit's published artifacts back by
    digest, uncounted: a cold sweep scores no hit, and the parent's
    only ``cache.lookup`` events are its lookup pass's."""
    import os

    from repro.telemetry import runtime as telemetry_runtime
    from repro.telemetry.merge import events, load_records

    specs = [observe_spec(w, 1, 2, "i7-920") for w in ("salt", "gas-8")]
    telemetry_runtime.activate(tmp_path / "run")
    try:
        result = sweep(specs, cache, jobs=2)
    finally:
        telemetry_runtime.deactivate()
    if not result.fanout:  # pragma: no cover - single-CPU / no-pool box
        pytest.skip("process pool unavailable; sweep fell back to serial")
    assert result.hits == 0
    assert cache.stats().hits == 0
    records, _ = load_records(tmp_path / "run")
    lookups = [
        e for e in events(records)
        if e["name"] == "cache.lookup" and e["pid"] == os.getpid()
    ]
    assert len(lookups) == len(specs)


def test_pooled_sweep_without_telemetry_stays_untraced(
    cache, tmp_path, monkeypatch
):
    """With no telemetry run active, a pooled sweep writes no
    telemetry anywhere: no scratch run directory, no per-process
    JSONL.  Directory removal is disabled so nothing can be written
    and then cleaned up unseen."""
    import shutil
    import tempfile

    from repro.telemetry import runtime as telemetry_runtime
    from repro.telemetry.emit import FILE_PREFIX

    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.setattr(shutil, "rmtree", lambda *_a, **_k: None)
    assert not telemetry_runtime.active()
    specs = [capture_spec("salt", 1), capture_spec("salt", 2)]
    result = sweep(specs, cache, jobs=2)
    assert result.ok and len(result.executed) == 2
    if not result.fanout:  # pragma: no cover - single-CPU / no-pool box
        pytest.skip("process pool unavailable; sweep fell back to serial")
    assert list(scratch.glob("repro-telemetry-*")) == []
    assert list(tmp_path.rglob(f"{FILE_PREFIX}*.jsonl")) == []


# ----------------------------------------------------------- pool width


def test_default_jobs_uses_the_affinity_mask(monkeypatch):
    """Containers and CI runners confine the process to a subset of
    cores; the pool must size to the mask, not the machine."""
    # the package re-exports the sweep *function* under this name,
    # shadowing the submodule for `import ... as`
    sweep_mod = importlib.import_module("repro.runcache.sweep")

    monkeypatch.setattr(
        sweep_mod.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False
    )
    assert sweep_mod.default_jobs() == 2


def test_default_jobs_falls_back_to_cpu_count(monkeypatch):
    # the package re-exports the sweep *function* under this name,
    # shadowing the submodule for `import ... as`
    sweep_mod = importlib.import_module("repro.runcache.sweep")

    def unavailable(pid):
        raise AttributeError("sched_getaffinity")

    monkeypatch.setattr(
        sweep_mod.os, "sched_getaffinity", unavailable, raising=False
    )
    monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 7)
    assert sweep_mod.default_jobs() == 7


def test_default_jobs_empty_mask_degrades_to_cpu_count(monkeypatch):
    # the package re-exports the sweep *function* under this name,
    # shadowing the submodule for `import ... as`
    sweep_mod = importlib.import_module("repro.runcache.sweep")

    monkeypatch.setattr(
        sweep_mod.os, "sched_getaffinity", lambda pid: set(), raising=False
    )
    monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 3)
    assert sweep_mod.default_jobs() == 3


# ------------------------------------------------------ the sweep span


def test_sweep_span_reports_the_result_misses(tmp_path):
    """The span's ``misses`` is SweepResult.misses, also when the misses
    run as one ensemble batch — which never starts a pool."""
    from repro.telemetry import runtime as telemetry_runtime
    from repro.telemetry.merge import load_records

    specs = [capture_spec("gas-8", 2, seed=s) for s in range(4)]
    telemetry_runtime.activate(tmp_path / "tel", label="span")
    try:
        result = sweep(specs, RunCache(tmp_path / "store"), jobs=2)
    finally:
        telemetry_runtime.deactivate()

    assert result.misses == 4 and result.ensemble_runs == 4
    assert not result.fanout and result.jobs == 1
    records, _ = load_records(tmp_path / "tel")
    (span,) = [
        r for r in records
        if r.get("kind") == "span" and r["name"] == "sweep"
    ]
    assert span["attrs"]["misses"] == result.misses
    assert not any(
        r.get("kind") == "span" and r["name"] == "fanout" for r in records
    )


# ------------------------------------------- the nested capture dependency


def _one_spec_per_replay_kind():
    from repro.runcache.key import KINDS, RunSpec

    chaos = dict(
        workload="salt", steps=1, threads=2, machine="i7-920",
        options={"gc_model": "chaos"},
    )
    specs = [
        observe_spec("salt", 1, 2, "i7-920"),
        trace_spec("salt", 1, 2, "i7-920"),
        toolerror_spec("salt", 1, 2, "i7-920"),
        RunSpec(kind="chaos_ref", **chaos),
        RunSpec(kind="chaos_case", **chaos),
    ]
    assert {s.kind for s in specs} == set(KINDS) - {"capture"}
    return specs


def test_executors_load_exactly_their_nested_capture(cache, monkeypatch):
    """The scheduler and the executors share one definition of the
    dependency: an executor's only lookup is its nested capture."""
    lookups = []
    real_get = RunCache.get

    def recording_get(self, spec):
        lookups.append(self.digest(spec))
        return real_get(self, spec)

    monkeypatch.setattr(RunCache, "get", recording_get)
    assert nested_capture(capture_spec("salt", 1)) is None
    for spec in _one_spec_per_replay_kind():
        lookups.clear()
        execute_spec(spec, cache)
        assert lookups == [cache.digest(nested_capture(spec))], spec.kind


def test_no_cache_sweep_captures_each_workload_once(monkeypatch):
    """Without a cache a sweep still computes each nested capture once,
    and only for its own lifetime; the bytes are unchanged."""
    from repro.core import simulate

    specs = [
        observe_spec(w, 1, n, "i7-920")
        for w in ("salt", "nanocar") for n in (1, 2, 4)
    ]
    fresh = [dumps_artifact(execute_spec(spec)) for spec in specs]
    calls = []
    real_capture = simulate.capture_trace

    def counting_capture(*args, **kwargs):
        calls.append(args)
        return real_capture(*args, **kwargs)

    monkeypatch.setattr(simulate, "capture_trace", counting_capture)
    # in-process, so the counter sees every capture
    result = sweep(specs, None, jobs=1)
    assert len(calls) == 2
    assert [dumps_artifact(a) for a in result.artifacts] == fresh
    sweep(specs[:1], None, jobs=1)
    assert len(calls) == 3  # nothing outlives the sweep


def test_no_cache_sweep_fans_out_like_a_cached_one(tmp_path):
    """A cache-less sweep runs against a throwaway store, so it takes
    the cached path: it fans out, and its bytes equal a cached sweep's."""
    specs = [
        observe_spec(w, 1, n, "i7-920")
        for w in ("salt", "nanocar") for n in (1, 2)
    ]
    plain = sweep(specs, None, jobs=2)
    assert plain.fanout and plain.ok
    assert plain.hits == 0 and len(plain.executed) == len(specs)
    cached = sweep(specs, RunCache(tmp_path / "store"), jobs=2)
    assert [dumps_artifact(a) for a in plain.artifacts] == [
        dumps_artifact(a) for a in cached.artifacts
    ]


def test_no_cache_sweep_leaves_no_store_behind(tmp_path, monkeypatch):
    import tempfile

    from repro.runcache.sweep import _EXECUTORS

    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))

    def leftovers():
        return sorted(p.name for p in scratch.glob("repro-sweep-*"))

    sweep([capture_spec("salt", 1)], None, jobs=1)
    assert leftovers() == []

    def broken(spec, cache):
        raise RuntimeError("spec failed")

    monkeypatch.setitem(_EXECUTORS, "capture", broken)
    with pytest.raises(RuntimeError, match="spec failed"):
        sweep([capture_spec("salt", 1)], None, jobs=1)
    assert leftovers() == []


def test_parallel_sweep_computes_each_nested_capture_once(tmp_path):
    """Two workers starting two specs of one workload must not both
    capture it: the second waits for the first's claim."""
    from repro.telemetry import runtime as telemetry_runtime
    from repro.telemetry.merge import load_records

    specs = [
        observe_spec(w, 2, n, "i7-920")
        for w in ("salt", "nanocar", "Al-1000") for n in (1, 2, 3, 4)
    ]
    telemetry_runtime.activate(tmp_path / "tel", label="race")
    try:
        result = sweep(specs, RunCache(tmp_path / "cold"), jobs=2)
    finally:
        telemetry_runtime.deactivate()
    assert result.ok and len(result.executed) == len(specs)
    if not result.fanout:  # pragma: no cover - single-CPU / no-pool box
        pytest.skip("process pool unavailable; sweep fell back to serial")

    records, _ = load_records(tmp_path / "tel")
    capture_puts = [
        r for r in records
        if r.get("kind") == "event" and r["name"] == "cache.put"
        and r["attrs"].get("kind") == "capture"
    ]
    assert len(capture_puts) == 3
    reference = sweep(specs, RunCache(tmp_path / "ref"), jobs=1)
    assert [dumps_artifact(a) for a in result.artifacts] == [
        dumps_artifact(a) for a in reference.artifacts
    ]


# ------------------------------------------------------------ GC hygiene


def _gc_state():
    return gc.isenabled(), gc.get_freeze_count()


@pytest.fixture()
def gc_probe(monkeypatch):
    """Capture specs whose executor returns the collector state its
    unit ran under: ``(heap frozen, collector enabled)``."""
    from repro.runcache.sweep import _EXECUTORS

    def probe(spec, cache):
        return gc.get_freeze_count() > 0, gc.isenabled()

    monkeypatch.setitem(_EXECUTORS, "capture", probe)
    # two workloads are two units, so jobs=2 fans them out to the pool
    return [capture_spec("salt", 1), capture_spec("nanocar", 1)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_runs_units_on_a_frozen_heap_and_restores_gc(
    gc_probe, tmp_path, jobs
):
    before = _gc_state()
    result = sweep(gc_probe, RunCache(tmp_path / "store"), jobs=jobs)
    assert _gc_state() == before
    if jobs == 2 and not result.fanout:  # pragma: no cover - no-pool box
        pytest.skip("process pool unavailable; sweep fell back to serial")
    # in-process and in a forked worker alike: the inherited heap is
    # frozen and the collector is paused while the unit runs
    assert result.artifacts == [(True, False), (True, False)]


def test_sweep_restores_gc_when_a_spec_raises(tmp_path, monkeypatch):
    from repro.runcache.sweep import _EXECUTORS

    def broken(spec, cache):
        raise RuntimeError("spec failed")

    monkeypatch.setitem(_EXECUTORS, "capture", broken)
    before = _gc_state()
    with pytest.raises(RuntimeError, match="spec failed"):
        sweep([capture_spec("salt", 1)], RunCache(tmp_path / "s"), jobs=1)
    assert _gc_state() == before


def test_sweep_leaves_a_disabled_collector_disabled(gc_probe, tmp_path):
    gc.disable()
    try:
        before = _gc_state()
        result = sweep(gc_probe[:1], RunCache(tmp_path / "store"), jobs=1)
        assert _gc_state() == before == (False, 0)
    finally:
        gc.enable()
    assert result.artifacts == [(True, False)]


@pytest.fixture()
def settled_pool_threads():
    """Wait out the process-pool threads an earlier pooled sweep left
    winding down.  A sweep shuts its pool down without waiting, so the
    executor's manager thread (and the call queue's feeder thread) may
    still be running; when one ends, the objects it held die, frozen
    ones included, and a freeze count taken before would move."""
    from concurrent.futures.process import _ExecutorManagerThread

    for thread in threading.enumerate():
        if isinstance(thread, _ExecutorManagerThread) or (
            thread.name.startswith("QueueFeederThread")
        ):
            thread.join(timeout=30)
            assert not thread.is_alive(), thread.name


def test_sweep_leaves_the_callers_own_freeze_alone(
    gc_probe, tmp_path, settled_pool_threads
):
    assert gc.get_freeze_count() == 0
    gc.freeze()
    try:
        before = _gc_state()
        result = sweep(gc_probe[:1], RunCache(tmp_path / "store"), jobs=1)
        assert _gc_state() == before and before[1] > 0
    finally:
        gc.unfreeze()
    assert result.artifacts == [(True, False)]
