"""Bit-exact oracle for observe_run's attribution passes.

``oracle_observe`` is ``observe_run``'s classification as it stood
before its one-pass rewrites: a full-stream tracer, thread states from
``GroundTruthTimeline`` objects, one scan of every span per worker and
per phase window, one interval intersection per phase in
``attribute_phase``, one per task span for its on-core seconds, and the
fault and GC interval algebra run even when those sets are empty.  Its
intersections are ``builtin_intersect``, the ``max``/``min`` walk that
``intersect_intervals`` replaced.  The production pass must produce
``==`` class/phase seconds and window executions on every case — plain
replays, a chaos plan with GC amplification, a work-stealing pool and a
pinned pool.  The helpers behind the rewrites are also checked against
the timeline and the old interval algebra on arbitrary inputs.
"""

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrent import QueueMode
from repro.core.simulate import SimulatedParallelRun, capture_trace
from repro.faults import (
    FaultPlan,
    GcAmplify,
    LockStall,
    PreemptStorm,
    Straggler,
    TaskLoss,
    WorkerCrash,
)
from repro.jvm.gc import AllocationRecorder, GcModel
from repro.machine import MACHINES, SimMachine
from repro.obs.attribution import (
    CLASSES,
    SERIAL_PHASE,
    Interval,
    _phase_seconds,
    _thread_states,
    _window_seconds,
    complement_intervals,
    intersect_intervals,
    interval_seconds,
    merge_intervals,
    observe_run,
)
from repro.obs.tracer import PhaseWindow, Tracer
from repro.perftools.sampling import GroundTruthTimeline, ThreadState
from repro.workloads import BUILDERS


def builtin_intersect(
    a: List[Interval], b: List[Interval]
) -> List[Interval]:
    """``intersect_intervals`` before its walk spelled out max/min."""
    out: List[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if e > s:
            out.append((s, e))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def oracle_subtract(
    a: List[Interval], b: List[Interval], lo: float, hi: float
) -> List[Interval]:
    return builtin_intersect(a, complement_intervals(b, lo, hi))


def oracle_observe(
    trace, n_atoms, spec, n_threads, *, seed=0, name="wl", **run_kwargs
):
    """(class_phase_seconds, window_exec) the pre-rewrite way."""
    machine = SimMachine(spec, seed=seed)
    tracer = Tracer().attach(machine.sim)  # the full stream
    run = SimulatedParallelRun(
        trace, n_atoms, machine, n_threads, name=name, **run_kwargs
    )
    result = run.run()
    tracer.detach()
    T = result.sim_seconds
    spans = [s for s in tracer.task_spans() if s.complete]
    windows = [w for w in tracer.phase_windows() if w.complete]
    timeline = GroundTruthTimeline(machine.scheduler.trace.events)

    def state_ivs(thread: str, state: ThreadState) -> List[Interval]:
        return merge_intervals(
            [
                (iv.start, iv.end)
                for iv in timeline.intervals.get(thread, [])
                if iv.state == state
            ],
            0.0,
            T,
        )

    def running_by_pu(thread: str) -> Dict[int, List[Interval]]:
        by: Dict[int, List[Interval]] = {}
        for iv in timeline.intervals.get(thread, []):
            if iv.state == ThreadState.RUNNING and iv.pu is not None:
                by.setdefault(iv.pu, []).append((iv.start, iv.end))
        return {
            pu: merge_intervals(l, 0.0, T) for pu, l in by.items()
        }

    master_running = state_ivs("master", ThreadState.RUNNING)
    gc_ivs = merge_intervals(result.gc_windows, 0.0, T)
    serial_spine = merge_intervals(master_running + gc_ivs, 0.0, T)

    # -- fault context (empty unless a fault plan was armed) -------------
    fault_windows = result.fault_windows
    slow_windows = [
        (w.detail["pu"], w.detail["factor"], w.start, w.end)
        for w in fault_windows
        if w.kind == "straggler"
    ]
    storm_ivs = merge_intervals(
        [(w.start, w.end) for w in fault_windows if w.kind == "preempt_storm"],
        0.0, T,
    )
    stall_ivs = merge_intervals(
        [(w.start, w.end) for w in fault_windows if w.kind == "lock_stall"],
        0.0, T,
    )
    death_time: Dict[int, float] = {}
    loss_start: Dict[str, float] = {}
    loss_ivs: List[Interval] = []
    steal_open: Dict[str, float] = {}
    steal_windows: Dict[str, List[Interval]] = {}
    for e in tracer.events:
        if e.kind == "worker.death":
            death_time[int(e.subject.rsplit("-", 1)[1])] = e.time
        elif e.kind == "fault.inject" and e.subject == "task_loss":
            uid = e.arg("uid", "")
            if uid:
                loss_start[uid] = e.time
        elif e.kind == "task.reissue":
            t_lost = loss_start.pop(e.subject, None)
            if t_lost is not None:
                # the pool idled on the vanished task until the watchdog
                # re-issued it: that whole window is the fault's doing
                loss_ivs.append((t_lost, e.time))
        elif e.kind == "steal.attempt":
            steal_open[e.subject] = e.time
        elif e.kind in ("steal.success", "steal.miss"):
            t0 = steal_open.pop(e.subject, None)
            if t0 is not None:
                steal_windows.setdefault(e.subject, []).append(
                    (t0, e.time)
                )
    # a worker interrupted mid-probe leaves its attempt open; its
    # on-core tail up to the crash was still steal work
    for subject, t0 in steal_open.items():
        steal_windows.setdefault(subject, []).append((t0, T))
    loss_ivs.extend((t, T) for t in loss_start.values())
    loss_ivs = merge_intervals(loss_ivs, 0.0, T)
    gc_mult = (
        run.injector.active.gc_multiplier
        if run.injector is not None
        else 1.0
    )

    #: phase name → merged wall intervals of its windows
    phase_ivs: Dict[str, List[Interval]] = {}
    for w in windows:
        phase_ivs.setdefault(w.name, []).append((w.begin, w.end))
    phase_ivs = {
        name_: merge_intervals(ivs, 0.0, T)
        for name_, ivs in phase_ivs.items()
    }

    acc: Dict[str, Dict[str, float]] = {
        cls: {SERIAL_PHASE: 0.0} for cls in CLASSES
    }

    def attribute_phase(
        cls: str, ivs: List[Interval], scale: float = 1.0
    ) -> None:
        # scale moves fractional seconds between classes (straggler and
        # GC-amplification compensation use a +s / −s pair, so the
        # per-worker partition of [0, T] stays exact)
        remaining = interval_seconds(ivs)
        for pname, pivs in phase_ivs.items():
            t = interval_seconds(builtin_intersect(ivs, pivs))
            if t:
                acc[cls][pname] = acc[cls].get(pname, 0.0) + scale * t
            remaining -= t
        acc[cls][SERIAL_PHASE] += scale * remaining

    exec_by_uid: Dict[str, float] = {}
    worker_names = [
        f"{run.pool.name}-worker-{i}" for i in range(n_threads)
    ]
    for i, wname in enumerate(worker_names):
        running = state_ivs(wname, ThreadState.RUNNING)
        ready = state_ivs(wname, ThreadState.READY)
        # anything not recorded as on-core or runnable is parked
        parked = complement_intervals(
            merge_intervals(running + ready, 0.0, T), 0.0, T
        )
        my_spans = [s for s in spans if s.worker == i]
        span_ivs = merge_intervals(
            [(s.started, s.finished) for s in my_spans], 0.0, T
        )
        queue_ivs = merge_intervals(
            [(s.enqueued, s.dequeued) for s in my_spans], 0.0, T
        )
        exec_run = builtin_intersect(running, span_ivs)
        attribute_phase("exec", exec_run)
        if slow_windows:
            on_pu = running_by_pu(wname)
            for pu, factor, s0, s1 in slow_windows:
                slow_exec = builtin_intersect(
                    builtin_intersect(exec_run, on_pu.get(pu, [])),
                    [(s0, s1)],
                )
                if slow_exec:
                    # of the on-core seconds inside the slowed window,
                    # (1−factor) is fault loss, factor is honest work
                    attribute_phase("fault", slow_exec, scale=1.0 - factor)
                    attribute_phase("exec", slow_exec, scale=factor - 1.0)
        off_span = oracle_subtract(running, span_ivs, 0.0, T)
        steal_ivs = merge_intervals(steal_windows.get(wname, []), 0.0, T)
        if steal_ivs:
            attribute_phase(
                "steal", builtin_intersect(off_span, steal_ivs)
            )
            off_span = oracle_subtract(off_span, steal_ivs, 0.0, T)
        attribute_phase("pool_overhead", off_span)
        if storm_ivs:
            attribute_phase("fault", builtin_intersect(ready, storm_ivs))
            attribute_phase(
                "ready", oracle_subtract(ready, storm_ivs, 0.0, T)
            )
        else:
            attribute_phase("ready", ready)
        fault_park_src = merge_intervals(
            stall_ivs
            + loss_ivs
            + ([(death_time[i], T)] if i in death_time else []),
            0.0, T,
        )
        attribute_phase(
            "fault", builtin_intersect(parked, fault_park_src)
        )
        parked = oracle_subtract(parked, fault_park_src, 0.0, T)
        gc_park = builtin_intersect(parked, gc_ivs)
        attribute_phase("gc", gc_park)
        if gc_mult > 1.0 and gc_park:
            # the amplified share of the pause is the fault's doing
            move = 1.0 - 1.0 / gc_mult
            attribute_phase("fault", gc_park, scale=move)
            attribute_phase("gc", gc_park, scale=-move)
        rem = oracle_subtract(parked, gc_ivs, 0.0, T)
        attribute_phase(
            "serial_master", builtin_intersect(rem, master_running)
        )
        rem = oracle_subtract(rem, master_running, 0.0, T)
        attribute_phase("queue_wait", builtin_intersect(rem, queue_ivs))
        attribute_phase(
            "latch_idle", oracle_subtract(rem, queue_ivs, 0.0, T)
        )
        for s in my_spans:
            exec_by_uid[s.uid] = interval_seconds(
                builtin_intersect(running, [(s.started, s.finished)])
            )

    window_exec: List[Tuple[PhaseWindow, List[Tuple[str, float]]]] = []
    for w in windows:
        tasks = [
            (s.uid, exec_by_uid.get(s.uid, 0.0))
            for s in spans
            if w.begin <= s.started < w.end
        ]
        window_exec.append((w, tasks))

    return acc, window_exec


STEPS = 3


def _gc_model() -> GcModel:
    # a small young generation, so short replays still collect
    return GcModel(
        AllocationRecorder(), young_gen_bytes=256 * 2**10, min_pause=5e-5
    )


def _pinned(machine: str, n: int):
    topo = SimMachine(MACHINES[machine]).topology
    return [[topo.pus_of_core(i % 4)[0]] for i in range(n)]


CHAOS = FaultPlan(
    name="chaos",
    faults=(
        Straggler(start=0.0002, duration=0.004, pu=1, factor=0.4),
        PreemptStorm(start=0.0004, duration=0.001, pus=(0, 1)),
        LockStall(at=0.0, duration=0.001, lock="queue"),
        TaskLoss(at=0.0005, index=0),
        WorkerCrash(at=0.001, worker=3),
        GcAmplify(factor=3.0),
    ),
)

#: case -> (workload, machine, threads, replay kwargs factory)
CASES = {
    "salt-x7560-16": ("salt", "x7560x4", 16, dict),
    "nanocar-x7560-32": ("nanocar", "x7560x4", 32, dict),
    "al1000-i7-1": ("Al-1000", "i7-920", 1, dict),
    "al1000-chaos-gc": (
        "Al-1000", "i7-920", 4,
        lambda: {"fault_plan": CHAOS, "gc_model": _gc_model()},
    ),
    "nanocar-stealing": (
        "nanocar", "x7560x4", 8,
        lambda: {
            "queue_mode": QueueMode.STEALING,
            "chunk": "fixed",
            "chunk_factor": 4,
        },
    ),
    "salt-pinned": (
        "salt", "i7-920", 4, lambda: {"affinities": _pinned("i7-920", 4)},
    ),
}

_traces = {}


def _trace(workload: str):
    if workload not in _traces:
        wl = BUILDERS[workload]()
        _traces[workload] = (wl, capture_trace(wl, STEPS))
    return _traces[workload]


@pytest.mark.parametrize("case", sorted(CASES))
def test_observe_run_matches_the_oracle_exactly(case):
    workload, machine, threads, kwargs = CASES[case]
    wl, trace = _trace(workload)
    args = (trace, wl.system.n_atoms, MACHINES[machine], threads)
    obs = observe_run(*args, name=wl.name, workload=wl.name, **kwargs())
    acc, window_exec = oracle_observe(*args, name=wl.name, **kwargs())
    assert obs.class_phase_seconds == acc
    assert obs.window_exec == window_exec
    # same types too (an int 0 and a float 0.0 pickle differently)
    assert repr(obs.class_phase_seconds) == repr(acc)
    assert repr(obs.window_exec) == repr(window_exec)
    assert obs.window_exec and any(
        t for _w, tasks in obs.window_exec for _u, t in tasks
    )


def test_chaos_gc_case_exercises_every_branch():
    workload, machine, threads, kwargs = CASES["al1000-chaos-gc"]
    wl, trace = _trace(workload)
    obs = observe_run(
        trace, wl.system.n_atoms, MACHINES[machine], threads,
        name=wl.name, workload=wl.name, **kwargs(),
    )
    totals = obs.class_totals()
    assert totals["fault"] > 0 and totals["gc"] > 0
    assert obs.gc_seconds > 0


# -- the helpers against the interval algebra -------------------------------

_times = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        # shared endpoints exercise max()/min()'s tie rules
        st.sampled_from([0.0, 1.0, 2.5, 5.0, 10.0]),
    ),
    max_size=24,
)


def _merged(points: List[float]) -> List[Interval]:
    pts = sorted(points)
    return merge_intervals(list(zip(pts[0::2], pts[1::2])), 0.0, 10.0)


@settings(max_examples=300, deadline=None)
@given(a=_times, b=_times)
def test_intersect_walk_equals_the_builtin_form(a, b):
    a, b = _merged(a), _merged(b)
    assert repr(intersect_intervals(a, b)) == repr(builtin_intersect(a, b))
    # an empty side gives no pieces
    assert intersect_intervals(a, []) == [] == intersect_intervals([], b)


@settings(max_examples=200, deadline=None)
@given(ivs=_times, windows=_times, tags=st.lists(st.sampled_from("abc")))
def test_phase_seconds_equals_per_phase_intersections(ivs, windows, tags):
    ivs = _merged(ivs)
    # disjoint windows, each tagged with one of three phases
    merged = _merged(windows)
    phase_ivs: Dict[str, List[Interval]] = {p: [] for p in "abc"}
    for k, w in enumerate(merged):
        phase_ivs[tags[k % len(tags)] if tags else "a"].append(w)
    tagged = sorted((s, e, p) for p, ws in phase_ivs.items() for s, e in ws)
    got = _phase_seconds(ivs, tagged, phase_ivs)
    want = {
        p: interval_seconds(builtin_intersect(ivs, ws))
        for p, ws in phase_ivs.items()
    }
    assert list(got) == list(want)
    assert repr(got) == repr(want)


@settings(max_examples=200, deadline=None)
@given(
    ivs=_times,
    lo=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    width=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
def test_window_seconds_equals_intersection(ivs, lo, width):
    ivs = _merged(ivs)
    hi = lo + width
    ends = [e for _s, e in ivs]
    want = interval_seconds(builtin_intersect(ivs, [(lo, hi)]))
    assert repr(_window_seconds(ivs, ends, lo, hi)) == repr(want)


_records = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.sampled_from(["a", "b", "c"]),
        st.integers(0, 2),
        st.sampled_from(["run:forces", "run:", "ready", "preempt", "done",
                         "migrate"]),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    records=_records,
    T=st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
    by_pu=st.booleans(),
)
def test_thread_states_equal_the_timeline_intervals(records, T, by_pu):
    # a scheduler log is time-ordered; repeated times are common
    events = sorted(records, key=lambda r: r[0])
    timeline = GroundTruthTimeline(events)
    got = _thread_states(events, ["a", "b", "master"], T, by_pu)
    for thread in ("a", "b", "master"):
        ivs = timeline.intervals.get(thread, [])

        def of(*states):
            return merge_intervals(
                [(iv.start, iv.end) for iv in ivs if iv.state in states],
                0.0, T,
            )

        running, ready, active, on_pu = got[thread]
        assert running == of(ThreadState.RUNNING)
        assert ready == of(ThreadState.READY)
        assert active == of(ThreadState.RUNNING, ThreadState.READY)
        by: Dict[int, List[Interval]] = {}
        for iv in ivs:
            if iv.state == ThreadState.RUNNING:
                by.setdefault(iv.pu, []).append((iv.start, iv.end))
        want = {pu: merge_intervals(l, 0.0, T) for pu, l in by.items()}
        assert on_pu == (
            {pu: l for pu, l in want.items() if l} if by_pu else {}
        )
