"""Hypothesis property: same seed + same plan ⇒ byte-identical traces.

The fault subsystem's core promise is that injected chaos is replayable:
two runs with the same machine seed and the same :class:`FaultPlan`
produce byte-for-byte identical event traces, whatever the plan.  The
synthetic pool workload keeps each double-replay cheap enough to let
hypothesis explore the plan space.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrent import SimExecutorService
from repro.faults import (
    FaultPlan,
    GcAmplify,
    LockStall,
    PreemptStorm,
    Straggler,
    TaskLoss,
    WorkerCrash,
)
from repro.machine import CORE_I7_920, SimMachine, WorkCost
from repro.obs import Tracer

N_THREADS = 3
#: fault-free synthetic run lasts ~0.15 s of simulated time
TIMES = st.floats(min_value=0.0, max_value=0.2, allow_nan=False)
DURATIONS = st.floats(min_value=1e-3, max_value=0.2, allow_nan=False)

FAULTS = st.one_of(
    st.builds(WorkerCrash, at=TIMES, worker=st.integers(0, N_THREADS - 1)),
    st.builds(
        Straggler,
        start=TIMES,
        duration=DURATIONS,
        pu=st.integers(0, 7),
        factor=st.floats(min_value=0.1, max_value=0.9),
    ),
    st.builds(
        PreemptStorm,
        start=TIMES,
        duration=DURATIONS,
        pus=st.lists(
            st.integers(0, 7), min_size=1, max_size=3, unique=True
        ).map(tuple),
        utilization=st.floats(min_value=0.1, max_value=0.9),
    ),
    st.builds(TaskLoss, at=TIMES, index=st.integers(0, 5)),
    st.builds(LockStall, at=TIMES, duration=DURATIONS),
    st.builds(GcAmplify, factor=st.floats(min_value=1.1, max_value=5.0)),
)

PLANS = st.lists(FAULTS, min_size=0, max_size=3).map(
    lambda faults: FaultPlan(faults=tuple(faults))
)


def traced_run(plan: FaultPlan, seed: int) -> bytes:
    from repro.faults import FaultInjector

    m = SimMachine(CORE_I7_920, seed=seed)
    tracer = Tracer().attach(m.sim)
    pool = SimExecutorService(
        m, N_THREADS, name="p", watchdog_interval=0.01
    )
    FaultInjector(m, plan, pool=pool).arm()
    crashed = {f.worker for f in plan.faults if isinstance(f, WorkerCrash)}

    def master():
        for _ in range(3):
            latch = pool.submit_phase(
                [
                    WorkCost(cycles=0.02 * m.spec.freq_hz)
                    for _ in range(N_THREADS)
                ]
            )
            ok = yield latch.wait(timeout=30.0)
            if not ok and crashed >= set(range(N_THREADS)):
                # every worker crashed: the pool has nothing left to
                # heal with and its latch times out by design; the
                # trace must still replay byte for byte
                break
            assert ok, "phase stalled despite self-healing"
        pool.shutdown()

    m.thread(master(), "master")
    m.run()
    tracer.detach()
    return tracer.serialize()


@settings(max_examples=12, deadline=None)
@given(plan=PLANS, seed=st.integers(0, 3))
def test_same_seed_same_plan_is_byte_identical(plan, seed):
    assert traced_run(plan, seed) == traced_run(plan, seed)


def test_plan_round_trip_preserves_trace():
    plan = FaultPlan(
        faults=(
            WorkerCrash(at=0.05, worker=1),
            Straggler(start=0.0, duration=0.1, pu=2, factor=0.3),
        ),
    )
    clone = FaultPlan.loads(plan.dumps())
    assert traced_run(plan, seed=2) == traced_run(clone, seed=2)
