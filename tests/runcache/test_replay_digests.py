"""Pinned bytes of the chaos-case and leaderboard-cell executors.

Each digest is the SHA-256 of ``dumps_artifact(execute_spec(spec))``,
recorded while both executors still rebuilt the workload beside the
capture they replay.  They now read the atom count from the capture
(``trace_atoms``) and build nothing; the bytes must not move.

A leaderboard cell's tool errors sum floats over sorted keys, so its
bytes must not depend on the interpreter's string hash seed: its digest
is checked in child interpreters under three hash seeds.  (It moved
once, when those sums stopped following set order.)
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults import FaultPlan, Straggler, TaskLoss, WorkerCrash
from repro.runcache import RunCache, dumps_artifact, execute_spec, sweep
from repro.runcache.key import RunSpec
from repro.runcache.sweep import nested_capture, toolerror_spec

SRC = Path(__file__).resolve().parents[2] / "src"

PLAN = FaultPlan(
    name="crash-loss",
    faults=(
        Straggler(start=0.0001, duration=0.002, pu=1, factor=0.4),
        TaskLoss(at=0.0005, index=0),
        WorkerCrash(at=0.001, worker=3),
    ),
)


def _chaos_case(workload, plan):
    return RunSpec(
        kind="chaos_case", workload=workload, steps=2, seed=0, threads=4,
        machine="i7-920", fault_plan=plan, options={"gc_model": "chaos"},
    )


CHAOS_CASES = {
    "salt-crash-loss": (
        _chaos_case("salt", PLAN.to_dict()),
        "60ba2f329a848e9db433631156908232ba6e2d1d36fef36ee8cfb6d2517793ca",
    ),
    "nanocar-none": (
        _chaos_case("nanocar", None),
        "8c21d1ae43c127b756ab53aac6720477351169747dba5f1e5ed44d878c7271d0",
    ),
}

TOOLERROR_DIGEST = (
    "a68977fc6eb5b8efa5f0103b6c319da17aa34362845394af8ff75e47f98ade59"
)


def _sha(artifact) -> str:
    return hashlib.sha256(dumps_artifact(artifact)).hexdigest()


@pytest.mark.parametrize("case", sorted(CHAOS_CASES))
def test_chaos_case_bytes_pinned(case):
    spec, digest = CHAOS_CASES[case]
    artifact = execute_spec(spec)
    assert artifact["ok"]
    assert _sha(artifact) == digest


def test_toolerror_cell_bytes_pinned():
    code = (
        "import hashlib\n"
        "from repro.runcache import dumps_artifact, execute_spec\n"
        "from repro.runcache.sweep import toolerror_spec\n"
        "a = execute_spec(toolerror_spec('salt', 2, 4, 'i7-920'))\n"
        "print(hashlib.sha256(dumps_artifact(a)).hexdigest())\n"
    )
    digests = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(
            os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC)
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, check=True,
        )
        digests.add(proc.stdout.strip())
    assert digests == {TOOLERROR_DIGEST}


@pytest.mark.parametrize("kind", ["chaos_case", "toolerror"])
def test_replays_build_no_workload(kind, tmp_path, monkeypatch):
    from repro import workloads

    spec = (
        CHAOS_CASES["salt-crash-loss"][0]
        if kind == "chaos_case"
        else toolerror_spec("salt", 2, 4, "i7-920")
    )
    cache = RunCache(tmp_path)
    sweep([nested_capture(spec)], cache, jobs=1)

    def refuse(**_kwargs):
        raise AssertionError("a replay rebuilt its workload")

    monkeypatch.setitem(workloads.BUILDERS, "salt", refuse)
    assert execute_spec(spec, cache) is not None
