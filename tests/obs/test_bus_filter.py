"""Kind-filtered bus subscribers.

A ``Tracer(kinds=...)`` must record exactly the subsequence of the full
stream whose kinds it names — the same event objects, in the same
order — whether or not a full-stream tracer rides along, and the bus
must refuse any filter that names a firehose kind (those sites emit
only while a full-stream subscriber is attached).
"""

import pytest

from repro.concurrent import QueueMode
from repro.core import SimulatedParallelRun, capture_trace
from repro.des import Simulator, serialize_events
from repro.des.simulator import FIREHOSE_KINDS, is_firehose_kind
from repro.faults import (
    FaultPlan,
    LockStall,
    PreemptStorm,
    Straggler,
    TaskLoss,
    WorkerCrash,
)
from repro.machine import MACHINES, SimMachine
from repro.obs import Tracer
from repro.obs.attribution import OBSERVED_KINDS
from repro.workloads import BUILDERS

STEPS = 3

CHAOS = FaultPlan(
    name="chaos",
    faults=(
        Straggler(start=0.0002, duration=0.004, pu=1, factor=0.4),
        PreemptStorm(start=0.0004, duration=0.001, pus=(0, 1)),
        LockStall(at=0.0, duration=0.001, lock="queue"),
        TaskLoss(at=0.0005, index=0),
        WorkerCrash(at=0.001, worker=3),
    ),
)

#: case -> (machine, threads, replay kwargs)
CASES = {
    "plain": ("i7-920", 4, {}),
    "chaos": ("i7-920", 4, {"fault_plan": CHAOS}),
    "stealing": (
        "x7560x4", 8,
        {"queue_mode": QueueMode.STEALING, "chunk": "fixed",
         "chunk_factor": 4},
    ),
}


@pytest.fixture(scope="module")
def al1000():
    wl = BUILDERS["Al-1000"]()
    return wl, capture_trace(wl, STEPS)


def replay(al1000, case, tracers):
    wl, trace = al1000
    machine_name, threads, kwargs = CASES[case]
    machine = SimMachine(MACHINES[machine_name], seed=0)
    for tracer in tracers:
        tracer.attach(machine.sim)
    result = SimulatedParallelRun(
        trace, wl.system.n_atoms, machine, threads, name=wl.name, **kwargs
    ).run()
    for tracer in tracers:
        tracer.detach()
    return machine, result


@pytest.mark.parametrize("case", sorted(CASES))
def test_filtered_tracer_sees_the_filtered_full_stream(al1000, case):
    full = Tracer()
    filtered = Tracer(kinds=OBSERVED_KINDS)
    replay(al1000, case, [filtered, full])
    want = [e for e in full.events if e.kind in OBSERVED_KINDS]
    assert len(filtered.events) == len(want)
    assert all(a is b for a, b in zip(filtered.events, want))
    # the full tracer still records everything, firehose kinds included
    assert any(is_firehose_kind(e.kind) for e in full.events)


@pytest.mark.parametrize("case", sorted(CASES))
def test_filtered_tracer_alone_misses_nothing(al1000, case):
    """Without a full-stream subscriber the firehose sites go quiet, yet
    the filtered stream and the simulated run are unchanged."""
    full = Tracer()
    _, both = replay(al1000, case, [Tracer(kinds=OBSERVED_KINDS), full])
    alone = Tracer(kinds=OBSERVED_KINDS)
    machine, result = replay(al1000, case, [alone])
    assert result.sim_seconds == both.sim_seconds
    assert alone.serialize() == serialize_events(
        [e for e in full.events if e.kind in OBSERVED_KINDS]
    )
    assert machine.sim._firehose == 0


def test_steal_and_fault_kinds_reach_the_filter(al1000):
    kinds = set()
    for case in ("chaos", "stealing"):
        tracer = Tracer(kinds=OBSERVED_KINDS)
        replay(al1000, case, [tracer])
        kinds |= set(tracer.counts_by_kind())
    for kind in (
        "steal.attempt", "steal.success", "worker.death", "fault.inject",
        "task.reissue", "phase.begin", "task.end",
    ):
        assert kind in kinds, kind


def test_no_firehose_emit_with_only_a_filtered_subscriber(al1000):
    wl, trace = al1000
    machine = SimMachine(MACHINES["i7-920"], seed=0)
    sim = machine.sim
    emitted = []
    real_emit = sim.emit

    def spy(kind, subject, *args):
        emitted.append(kind)
        real_emit(kind, subject, *args)

    sim.emit = spy
    Tracer(kinds=OBSERVED_KINDS).attach(sim)
    SimulatedParallelRun(
        trace, wl.system.n_atoms, machine, 4, name=wl.name
    ).run()
    assert emitted
    assert not [k for k in emitted if is_firehose_kind(k)]


@pytest.mark.parametrize(
    "kind", sorted(FIREHOSE_KINDS) + ["sched.run", "sched.migrate"]
)
def test_subscribe_rejects_a_firehose_kind(kind):
    sim = Simulator()
    with pytest.raises(ValueError, match="firehose"):
        sim.subscribe(lambda e: None, kinds={"task.end", kind})
    with pytest.raises(ValueError, match="firehose"):
        Tracer(kinds=[kind]).attach(sim)
    assert not sim._subscribers and sim._firehose == 0


def test_subscription_bookkeeping():
    sim = Simulator()
    got_all, got_some = [], []
    sim.subscribe(got_all.append)
    sim.subscribe(got_some.append, kinds={"a.x"})
    assert sim._firehose == 1
    sim.emit("a.x", "s")
    sim.emit("b.y", "s")
    assert [e.kind for e in got_all] == ["a.x", "b.y"]
    assert [e.kind for e in got_some] == ["a.x"]
    assert got_all[0] is got_some[0]
    sim.unsubscribe(got_all.append)
    assert sim._firehose == 0 and sim.traced
    sim.emit("b.y", "s")
    sim.emit("a.x", "s")
    assert len(got_all) == 2 and len(got_some) == 2
    sim.unsubscribe(got_some.append)
    assert not sim.traced
    with pytest.raises(ValueError):
        sim.unsubscribe(got_some.append)
