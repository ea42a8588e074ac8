"""Pinned observation bytes: the reference for replay identity.

Each digest is the SHA-256 of the run-cache artifact bytes
(``dumps_artifact``) of one ``observe_run`` replay, with
``result.machine`` stripped exactly as the observe executor stores it.
They were recorded before the trace bus learned kind filters, before
the scheduler kept an incremental per-PU load index, and before
attribution replaced its per-phase interval scans with one pass.  Any
change to what a replay schedules, records or attributes shows here:
such a change would silently invalidate every cached observation.

The cells are the Table III replay grid (x7560x4, 10 steps), one Fig. 1
cell on the i7-920, a chaos replay that realizes five fault kinds, a
work-stealing pool and a pinned-affinity pool.  The chaos cell also
pins the exact ``repr`` of its attribution buckets.
"""

import hashlib

import pytest

from repro.concurrent import QueueMode
from repro.core.simulate import capture_trace
from repro.faults import (
    FaultPlan,
    LockStall,
    PreemptStorm,
    Straggler,
    TaskLoss,
    WorkerCrash,
)
from repro.machine import MACHINES, SimMachine
from repro.obs.attribution import attribute_observations, observe_run
from repro.runcache.store import dumps_artifact
from repro.workloads import BUILDERS

STEPS = 10

#: timed against Al-1000's 6.1 ms fault-free replay at 4 threads on the
#: i7-920, so every fault lands inside the run
CHAOS_PLAN = FaultPlan(
    name="chaos",
    faults=(
        Straggler(start=0.0003, duration=0.012, pu=1, factor=0.4),
        PreemptStorm(start=0.0006, duration=0.0025, pus=(0, 1)),
        LockStall(at=0.0, duration=0.003, lock="queue"),
        TaskLoss(at=0.001, index=0),
        WorkerCrash(at=0.003, worker=3),
    ),
)


def _pinned(machine: str, n: int):
    topo = SimMachine(MACHINES[machine]).topology
    return [[topo.pus_of_core(i % 4)[0]] for i in range(n)]


#: cell id -> (workload, machine, threads, replay kwargs factory)
CELLS = {
    **{
        f"tab3-{w}-{n}": (w, "x7560x4", n, dict)
        for w in ("salt", "nanocar", "Al-1000")
        for n in (1, 8, 16, 32)
    },
    "i7-Al-1000-4": ("Al-1000", "i7-920", 4, dict),
    "chaos": ("Al-1000", "i7-920", 4, lambda: {"fault_plan": CHAOS_PLAN}),
    "stealing": (
        "nanocar", "x7560x4", 8,
        lambda: {
            "queue_mode": QueueMode.STEALING,
            "chunk": "fixed",
            "chunk_factor": 4,
        },
    ),
    "pinned": (
        "salt", "i7-920", 4,
        lambda: {"affinities": _pinned("i7-920", 4)},
    ),
}

DIGESTS = {
    "chaos":
        "2dbe3cfd41856a26a863f73c947be8a82967b5e410774e0b63e1a2fb83de8ac2",
    "i7-Al-1000-4":
        "eefd58759d3f3bb32ce11915ddbff7da52c8291e1952054c67c2e04b74e61b3c",
    "pinned":
        "a4e58cd344132ab562c66ca20f0d6fe2bc1489db410163bc9b15df10681f4ac3",
    "stealing":
        "a6e582df1ceb34d0d162021156ff18d9dca64cd6f5204fd9d648351ce0f92c53",
    "tab3-Al-1000-1":
        "01e231beba46c9f279668cbb0687acf00f5d47c1d8317c1e7c3250242806d6a7",
    "tab3-Al-1000-8":
        "8495fb9d008e09e4dd797a50b6e34aa8e73486e9a95f988061427bd35eb1b45a",
    "tab3-Al-1000-16":
        "fd3bec32a8bd04169429bf2f8cf79aebbaf8db907e96670b2bc1b4066e9fda7c",
    "tab3-Al-1000-32":
        "c46b03ee1986f410460afca6cab65f93efa2641e3203773fcf877eaf630dfab5",
    "tab3-nanocar-1":
        "541f79e0c6ead250d65d4cc5bb256fa65abe2c49c293091467a16acd6b35f06a",
    "tab3-nanocar-8":
        "0992d5caea8a0de79b69947e6a26b6eb7340b420a6e6ac1ba1e8a3578b5c473b",
    "tab3-nanocar-16":
        "1205014a946ca6c8972be2d7f530aa79c39670a08c6261957d3f19b246d2e071",
    "tab3-nanocar-32":
        "f2654dea7cd5ca8f0aeb9c1a09a51c28e98c4fc287ac3e98ac1fa1026f401a44",
    "tab3-salt-1":
        "c6a6936c5e6c042f2d8629f5b90bde14c1005eb579fa54fcc2ab36957cf038a2",
    "tab3-salt-8":
        "b3d4770ce2f7c2eff0c82fcc8889cf5c7f64efb416503acc315e26de05687ae5",
    "tab3-salt-16":
        "efab25a9d0638e3ff295e4aee0290763cf1f085db63fc9d98c744fedd6d24095",
    "tab3-salt-32":
        "ecc8b19ed24f53d47b287f4ba7824bd21a4aec0da196df2c8f5210fe4efca33c",
}

#: ``repr(sorted(buckets.items()))`` of the chaos cell against the
#: Al-1000 one-thread i7-920 baseline
CHAOS_BUCKETS = (
    "[('fault_loss', 0.005959477731574299), ('gc', 0.0), "
    "('latch_idle', 0.0016093857058731168), "
    "('queue_wait', 0.0001243134398496241), "
    "('sched_overhead', 0.00025768230477100766), "
    "('steal_overhead', 0.0), "
    "('work_inflation', 0.0015483577946049801)]"
)

_traces = {}


def _trace(workload: str):
    if workload not in _traces:
        _traces[workload] = capture_trace(BUILDERS[workload](), STEPS)
    return _traces[workload]


def observe_cell(cell: str):
    """The cell's observation, stripped as the run cache stores it."""
    workload, machine, threads, kwargs = CELLS[cell]
    wl = BUILDERS[workload]()
    obs = observe_run(
        _trace(workload), wl.system.n_atoms, MACHINES[machine], threads,
        name=wl.name, workload=wl.name, **kwargs(),
    )
    obs.result.machine = None
    return obs


def _digest(artifact) -> str:
    return hashlib.sha256(dumps_artifact(artifact)).hexdigest()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_observation_bytes_match_pinned_digest(cell):
    assert _digest(observe_cell(cell)) == DIGESTS[cell]


def test_chaos_plan_realizes_every_fault_kind():
    result = observe_cell("chaos").result
    assert {w.kind for w in result.fault_windows} == {
        "straggler", "preempt_storm", "lock_stall", "task_loss",
        "worker_crash",
    }
    assert result.dead_workers == [3]
    assert result.reissued


def test_chaos_buckets_match_pinned_repr():
    base = observe_run(
        _trace("Al-1000"), BUILDERS["Al-1000"]().system.n_atoms,
        MACHINES["i7-920"], 1, name="Al-1000", workload="Al-1000",
    )
    res = attribute_observations(observe_cell("chaos"), base)
    assert repr(sorted(res.buckets.items())) == CHAOS_BUCKETS
