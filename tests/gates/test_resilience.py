"""Resilience gate: real-process chaos against the sweep supervisor,
on the 12-config grid (three paper workloads x 1/2/4/8 threads, 2
steps, i7-920) with four pool workers.

* A fault-free sweep gives each artifact's reference bytes.
* SIGKILLed workers, transient failures and ENOSPC'd / truncated cache
  writes: the sweep completes byte-identically, at least one kill
  fired and supervision visibly recovered.
* A hung shard: at least one attempt times out and the retry converges
  byte-identically.
* A journaled ``repro sweep`` subprocess SIGKILLed mid-campaign:
  ``--resume`` re-executes no journaled-complete spec.
* CLI exit codes: 3 on partial success with the quarantined specs
  reported, 0 on full success.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.faults.process import (
    PLAN_FILE,
    ProcessFaultPlan,
    activate,
    deactivate,
)
from repro.runcache import (
    RunCache,
    SupervisionPolicy,
    dumps_artifact,
    journal_specs,
    load_journal,
    observe_spec,
    sweep,
)
from repro.runcache.resilience import JOURNAL_NAME
from tests.gates._checks import REPO

WORKLOADS = ("salt", "nanocar", "Al-1000")
THREADS = (1, 2, 4, 8)
STEPS = 2
JOBS = 4


def _grid():
    return [
        observe_spec(w, STEPS, t, "i7-920", seed=0)
        for w in WORKLOADS
        for t in THREADS
    ]


def _hashes(specs, result, cache):
    """digest -> sha256 of each artifact's canonical bytes."""
    return {
        cache.digest(spec): hashlib.sha256(dumps_artifact(a)).hexdigest()
        for spec, a in zip(specs, result.artifacts)
        if a is not None
    }


def _assert_identical(reference, hashes, n_specs):
    assert len(hashes) == n_specs, f"{len(hashes)} of {n_specs} artifacts"
    assert all(reference.get(d) == h for d, h in hashes.items()), (
        "artifacts differ from the fault-free sweep"
    )


def _cli_env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p
    )
    if "REPRO_PROCESS_FAULTS" not in extra:
        env.pop("REPRO_PROCESS_FAULTS", None)
    return env


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    cache = RunCache(tmp_path_factory.mktemp("baseline"))
    specs = _grid()
    result = sweep(specs, cache, jobs=JOBS)
    assert result.ok and len(result.executed) == len(specs)
    hashes = _hashes(specs, result, cache)
    assert len(hashes) == len(specs)
    return hashes


def test_worker_chaos_recovers_byte_identically(reference, tmp_path):
    state_dir = tmp_path / "state"
    plan = ProcessFaultPlan(
        state_dir=str(state_dir),
        kill_labels=("observe:salt*",),
        kill_starts=2,
        flaky_labels=("observe:nanocar*",),
        flaky_failures=2,
        enospc_kinds=("observe",),
        enospc_puts=1,
        truncate_kinds=("observe",),
        truncate_puts=1,
    )
    cache = RunCache(tmp_path / "cache")
    specs = _grid()
    activate(plan)
    try:
        result = sweep(
            specs, cache, jobs=JOBS, journal=str(tmp_path / "journal")
        )
    finally:
        deactivate()
    assert result.ok
    _assert_identical(reference, _hashes(specs, result, cache), len(specs))
    kills = sum(1 for n in os.listdir(state_dir) if n.startswith("kill-"))
    assert kills >= 1, "no worker was SIGKILLed"
    recovered = result.retries + result.pool_restarts + int(result.degraded)
    assert recovered >= 1, "no supervision activity"


def test_hung_shard_times_out_and_converges(reference, tmp_path):
    plan = ProcessFaultPlan(
        state_dir=str(tmp_path / "state"),
        hang_labels=("observe:salt*",),
        hang_starts=1,
        hang_seconds=60.0,
    )
    cache = RunCache(tmp_path / "cache")
    specs = [observe_spec("salt", STEPS, t, "i7-920", seed=0)
             for t in (1, 2, 4)]
    activate(plan)
    try:
        result = sweep(
            specs, cache, jobs=2, journal=str(tmp_path / "journal"),
            policy=SupervisionPolicy(timeout=6.0),
        )
    finally:
        deactivate()
    assert result.ok
    assert result.timeouts >= 1
    _assert_identical(reference, _hashes(specs, result, cache), len(specs))


def test_resume_reexecutes_nothing_complete(reference, tmp_path):
    journal_dir = tmp_path / "journal"
    cache_dir = tmp_path / "cache"
    journal_path = journal_dir / JOURNAL_NAME
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "sweep",
            "--workloads", *WORKLOADS,
            "--threads", ",".join(str(t) for t in THREADS),
            "--steps", str(STEPS), "--seed", "0",
            "--machine", "i7-920", "--jobs", str(JOBS),
            "--journal", str(journal_dir), "--cache-dir", str(cache_dir),
        ],
        env=_cli_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )

    def finished():
        try:
            return journal_path.read_bytes().count(b'"kind":"finished"')
        except OSError:
            return 0

    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline and proc.poll() is None:
        if finished() >= 3:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except OSError:
                pass
            break
        time.sleep(0.005)
    proc.wait()

    state = load_journal(str(journal_dir))
    assert state is not None and state.entries, "no journal produced"
    completed_before = set(state.completed)
    started_before = dict(state.started)
    specs = journal_specs(state)
    cache = RunCache(cache_dir)
    result = sweep(specs, cache, jobs=JOBS, resume=str(journal_dir))
    after = load_journal(str(journal_dir))
    reexecuted = [
        d for d in completed_before
        if after.started.get(d, 0) > started_before.get(d, 0)
    ]
    assert result.ok
    assert reexecuted == []
    assert result.resumed == len(completed_before)
    _assert_identical(reference, _hashes(specs, result, cache), len(specs))


def test_exit_codes_distinguish_partial_success(tmp_path):
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    plan = ProcessFaultPlan(
        state_dir=str(state_dir), poison_labels=("observe:Al-1000*",)
    )
    plan_path = plan.save(str(state_dir / PLAN_FILE))
    out_dir = tmp_path / "out"
    common = [
        sys.executable, "-m", "repro", "sweep", "--threads", "1,2",
        "--steps", str(STEPS), "--seed", "0", "--machine", "i7-920",
        "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
    ]
    partial = subprocess.run(
        common + [
            "--workloads", "salt", "Al-1000",
            "--journal", str(tmp_path / "journal"), "--out", str(out_dir),
        ],
        env=_cli_env(REPRO_PROCESS_FAULTS=str(plan_path)),
        capture_output=True, text=True,
    )
    clean = subprocess.run(
        common + ["--workloads", "salt"],
        env=_cli_env(), capture_output=True, text=True,
    )
    assert partial.returncode == 3, partial.stderr
    assert "quarantined" in partial.stdout
    sweep_json = json.loads((out_dir / "sweep.json").read_text())
    assert len(sweep_json["quarantined"]) == 2
    assert clean.returncode == 0, clean.stderr
