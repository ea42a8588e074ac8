"""Ensemble gate: 100 seeded gas-8 captures of 40 steps advanced in
lockstep by one engine execute at least 10x faster (best of 3, engine
build and priming untimed, GC off) than the same 100 one-run engines
stepped one after another, with byte-identical per-run traces.  Swept
through a fresh cache they run as ensemble batches whose stored bytes
equal one-run ``execute_spec`` results, and a resweep hits every spec.
"""

import gc
import pickle
import time

from repro.md.engine import MDEngine
from repro.runcache import RunCache, capture_spec, dumps_artifact, sweep
from repro.runcache import execute_spec
from repro.workloads import BUILDERS

WORKLOAD = "gas-8"
STEPS = 40
RUNS = 100
REPS = 3
MIN_SPEEDUP = 10.0
#: pickle protocol of the identity check — the run cache's
PROTOCOL = 4


def _timed(run):
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        traces = run()
        return max(time.perf_counter() - t0, 1e-9), traces
    finally:
        gc.enable()


def _one_run_engines():
    engines = [
        BUILDERS[WORKLOAD](seed=seed).make_engine() for seed in range(RUNS)
    ]
    for eng in engines:
        eng.prime()
    return _timed(lambda: [eng.run(STEPS) for eng in engines])


def _lockstep_engine():
    ens = MDEngine.lockstep(
        [BUILDERS[WORKLOAD](seed=seed).make_engine() for seed in range(RUNS)]
    )
    ens.prime()
    return _timed(lambda: ens.run_all(STEPS))


def test_lockstep_is_ten_times_faster_and_identical():
    one_s = lock_s = None
    for _ in range(REPS):
        s, one_traces = _one_run_engines()
        e, lock_traces = _lockstep_engine()
        one_s = s if one_s is None else min(one_s, s)
        lock_s = e if lock_s is None else min(lock_s, e)
    diverged = [
        seed for seed in range(RUNS)
        if pickle.dumps(one_traces[seed], PROTOCOL)
        != pickle.dumps(lock_traces[seed], PROTOCOL)
    ]
    assert diverged == [], f"lockstep traces diverge for seeds {diverged}"
    speedup = one_s / lock_s
    assert speedup >= MIN_SPEEDUP, f"{speedup:.2f}x execution speedup"


def test_sweep_batches_are_byte_equal_to_one_run_specs(tmp_path):
    specs = [capture_spec(WORKLOAD, STEPS, seed=s) for s in range(RUNS)]
    reference = [dumps_artifact(execute_spec(spec)) for spec in specs]
    cache = RunCache(tmp_path)
    result = sweep(specs, cache, jobs=1)
    assert result.ensemble_batches >= 1
    assert result.ensemble_runs == RUNS
    assert all(
        cache.get_bytes(spec) == blob
        for spec, blob in zip(specs, reference)
    )
    assert sweep(specs, cache, jobs=1).hits == RUNS
