"""Speedup-loss attribution: *why* doesn't a workload scale?

PR 1's tracer records what happened; this module explains it.  For one
workload × thread count it decomposes the gap between *ideal* speedup
(T₁/N) and *achieved* runtime into named, conserved buckets, following
the work-inflation vs idle-time decomposition of Acar, Charguéraud &
Rainey (arXiv:1709.03767) and LAMMPS-style per-phase breakdowns:

* **work_inflation** — extra on-core seconds the same work costs at N
  threads (cache misses, migrations, DRAM contention, SMT slowdown);
* **latch_idle** — workers parked at the phase latch while stragglers
  finish (the paper's §IV load imbalance);
* **queue_wait** — tasks enqueued but no worker picking them up;
* **sched_overhead** — ready-but-not-running time, the contended
  queue-pop critical section, and the master's serial display/dispatch
  sections that leave every worker idle (the Amdahl fraction);
* **steal_overhead** — on-core seconds spent probing victim deques
  under ``QueueMode.STEALING`` (the toll work-stealing pays to convert
  latch_idle back into useful work); zero for the fixed-queue pools;
* **gc** — stop-the-world collections injected by the GC model;
* **fault_loss** — time lost to injected faults (crashed workers' dead
  tails, straggler-core slowdown, preemption storms, lock stalls,
  amplified GC pauses); zero unless a fault plan is armed.

The accounting is exact by construction: every instant of every
worker's [0, T] is classified into exactly one class, so

    achieved − ideal  ==  Σ buckets      (to float round-off)

which ``tests/obs/test_attribution.py`` asserts as a property and
``tests/gates/test_attribution.py`` re-checks on the paper sweep.

Within the forces phase, work inflation is further attributed to the
individual force kernels (LJ / Coulomb / bonded / fused rebuild) by
their modeled cost shares — this is what names the LJ kernel as the
reason Al-1000 stops scaling (§V of the paper).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.costmodel import DEFAULT_COST_PARAMS, CostParams
from repro.core.simulate import RunResult, SimulatedParallelRun, capture_trace
from repro.machine.machine import SimMachine
from repro.machine.topology import CORE_I7_920, MachineSpec
from repro.obs.critical_path import CriticalPath, critical_path
from repro.obs.tracer import PhaseWindow, Tracer
from repro.perftools.sampling import GroundTruthTimeline, ThreadState
from repro.workloads import BUILDERS, resolve_workload

Interval = Tuple[float, float]

#: pseudo-phase for time outside every phase window (master serial
#: sections, GC pauses at step boundaries, startup/shutdown slack)
SERIAL_PHASE = "serial"

#: the trace-bus kinds :func:`observe_run` reads; its tracer subscribes
#: to these alone, so the replay never builds the events it would drop
OBSERVED_KINDS = frozenset({
    "task.enqueue", "task.dequeue", "task.start", "task.end",
    "phase.begin", "phase.end",
    "worker.death", "fault.inject", "task.reissue",
    "steal.attempt", "steal.success", "steal.miss",
})

#: fine-grained per-instant classes (each worker instant gets exactly one)
CLASSES = (
    "exec",           # on-core inside a task span
    "pool_overhead",  # on-core outside spans: queue-pop lock, ctx switch
    "steal",          # on-core probing victim deques (STEALING pools)
    "ready",          # runnable, waiting for a PU
    "fault",          # time lost to an injected fault (chaos runs)
    "gc",             # parked during a stop-the-world collection
    "serial_master",  # parked while the master runs (display/dispatch)
    "queue_wait",     # parked while its next task sits in the queue
    "latch_idle",     # parked at the phase latch (stragglers running)
)

#: class → displayed bucket (the report's columns)
CLASS_TO_BUCKET = {
    "exec": "work_inflation",
    "pool_overhead": "sched_overhead",
    "steal": "steal_overhead",
    "ready": "sched_overhead",
    "serial_master": "sched_overhead",
    "queue_wait": "queue_wait",
    "latch_idle": "latch_idle",
    "gc": "gc",
    "fault": "fault_loss",
}

BUCKETS = (
    "work_inflation", "latch_idle", "queue_wait",
    "sched_overhead", "steal_overhead", "gc", "fault_loss",
)

#: rough core cycles one byte of DRAM-bandwidth traffic costs — used
#: only to weigh flop-heavy vs byte-heavy kernels against each other
#: when splitting the forces phase per kernel (≈2.66 GHz / 8 GB/s)
_CYCLES_PER_BYTE = 0.33


# -- interval arithmetic ----------------------------------------------------
# All helpers operate on sorted, disjoint, half-open (start, end) lists.


def merge_intervals(
    ivs: Sequence[Interval], lo: float, hi: float
) -> List[Interval]:
    """Clip to [lo, hi], drop empties, sort, and coalesce overlaps."""
    clipped = sorted(
        (max(s, lo), min(e, hi)) for s, e in ivs if min(e, hi) > max(s, lo)
    )
    out: List[Interval] = []
    for s, e in clipped:
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1] = (out[-1][0], e)
        else:
            out.append((s, e))
    return out


def intersect_intervals(
    a: Sequence[Interval], b: Sequence[Interval]
) -> List[Interval]:
    """Pairwise intersection of two merged interval lists."""
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


def complement_intervals(
    ivs: Sequence[Interval], lo: float, hi: float
) -> List[Interval]:
    """[lo, hi] minus a merged interval list."""
    out: List[Interval] = []
    cur = lo
    for s, e in ivs:
        if s > cur:
            out.append((cur, s))
        cur = max(cur, e)
    if hi > cur:
        out.append((cur, hi))
    return out


def subtract_intervals(
    a: Sequence[Interval], b: Sequence[Interval], lo: float, hi: float
) -> List[Interval]:
    """a minus b (both merged, within [lo, hi])."""
    return intersect_intervals(a, complement_intervals(b, lo, hi))


def interval_seconds(ivs: Sequence[Interval]) -> float:
    """Total covered seconds of a merged interval list."""
    return sum(e - s for s, e in ivs)


def _window_seconds(
    ivs: Sequence[Interval], ends: Sequence[float], lo: float, hi: float
) -> float:
    """``interval_seconds(intersect_intervals(ivs, [(lo, hi)]))`` for a
    merged list ``ivs`` whose end times are ``ends``.

    The intervals ending by ``lo`` cannot overlap the window, so a
    bisect skips them; the walk from there makes the same pieces in the
    same order as :func:`intersect_intervals`, and sums them the same
    way, so the float is identical.
    """
    pieces = []
    i = bisect_right(ends, lo)
    n = len(ivs)
    while i < n:
        a0, a1 = ivs[i]
        s = lo if lo > a0 else a0
        e = hi if hi < a1 else a1
        if e > s:
            pieces.append(e - s)
        if a1 < hi:
            i += 1
        else:
            break
    return sum(pieces)


def _phase_seconds(
    ivs: Sequence[Interval],
    tagged: Sequence[Tuple[float, float, str]],
    phases: Sequence[str],
) -> Dict[str, float]:
    """Seconds of a merged list ``ivs`` inside each phase's windows:
    ``{p: interval_seconds(intersect_intervals(ivs, windows of p))}``
    for every ``p`` in ``phases``, in that order.

    ``tagged`` holds every phase's merged windows as time-sorted
    ``(start, end, phase)``; windows of different phases must not
    overlap.  One two-pointer pass against all of them cuts exactly the
    pieces the per-phase intersections would, each phase's in time
    order, and sums them the same way, so every float is identical.
    """
    pieces: Dict[str, List[float]] = {p: [] for p in phases}
    i = j = 0
    n_ivs, n_tagged = len(ivs), len(tagged)
    while i < n_ivs and j < n_tagged:
        a0, a1 = ivs[i]
        b0, b1, phase = tagged[j]
        # max()/min()'s tie rules, as in intersect_intervals
        s = b0 if b0 > a0 else a0
        e = b1 if b1 < a1 else a1
        if e > s:
            pieces[phase].append(e - s)
        if a1 < b1:
            i += 1
        else:
            j += 1
    return {p: sum(ps) for p, ps in pieces.items()}


# -- one observed run -------------------------------------------------------


@dataclass
class RunObservation:
    """Everything the attribution math needs from one traced replay."""

    workload: str
    n_threads: int
    steps: int
    sim_seconds: float
    #: class → phase → total worker-seconds (Σ over classes and phases
    #: == n_threads × sim_seconds, exactly)
    class_phase_seconds: Dict[str, Dict[str, float]]
    #: per completed phase window: (window, [(task uid, on-core s)])
    window_exec: List[Tuple[PhaseWindow, List[Tuple[str, float]]]]
    #: merged master-on-core ∪ GC-pause intervals (the serial spine)
    serial_intervals: List[Interval]
    gc_seconds: float
    result: RunResult = field(repr=False, default=None)

    def class_totals(self) -> Dict[str, float]:
        """Worker-seconds per class, summed over phases."""
        return {
            cls: sum(by_phase.values())
            for cls, by_phase in self.class_phase_seconds.items()
        }

    def phases(self) -> List[str]:
        """Phase names seen, execution order first, serial last."""
        order: List[str] = []
        for w, _tasks in self.window_exec:
            if w.name not in order:
                order.append(w.name)
        order.append(SERIAL_PHASE)
        return order


def observe_run(
    trace,
    n_atoms: int,
    spec: MachineSpec,
    n_threads: int,
    *,
    seed: int = 0,
    name: str = "wl",
    workload: str = "wl",
    **run_kwargs,
) -> RunObservation:
    """Replay a captured physics trace under the tracer and classify
    every worker instant.

    The tracer subscribes only to :data:`OBSERVED_KINDS` — the task
    lifecycle, the phase markers, and the fault and steal events the
    classification reads — so the bus builds no event that would be
    dropped; thread states come from the scheduler's own ground-truth
    log.  Each class's seconds are split over phases in one pass
    against all phase windows.

    The classification is a partition: running time splits into task
    execution vs pool overhead, and parked time is attributed — in
    priority order — to fault windows (a crashed worker's dead tail,
    lock stalls), GC pauses, serial master sections, queue wait, and
    finally latch idle.  When a fault plan rides in via ``run_kwargs``,
    straggler slowdown is moved from exec to fault ((1−factor) of the
    on-core time inside the slowed window), storm-time ready goes to
    fault, and the amplified share of each GC pause goes to fault — so
    the partition stays exact and the bucket deltas still telescope.
    """
    machine = SimMachine(spec, seed=seed)
    tracer = Tracer(kinds=OBSERVED_KINDS).attach(machine.sim)
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

    # the replay master runs one phase at a time, so windows of
    # different phases never overlap; _phase_seconds relies on that
    tagged = sorted(
        (s, e, pname) for pname, pivs in phase_ivs.items() for s, e in pivs
    )
    assert all(
        tagged[k][1] <= tagged[k + 1][0] for k in range(len(tagged) - 1)
    ), "phase windows of different phases overlap"

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
        row = acc[cls]
        for pname, t in _phase_seconds(ivs, tagged, phase_ivs).items():
            if t:
                row[pname] = row.get(pname, 0.0) + scale * t
            remaining -= t
        row[SERIAL_PHASE] += scale * remaining

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
        exec_run = intersect_intervals(running, span_ivs)
        attribute_phase("exec", exec_run)
        if slow_windows:
            on_pu = running_by_pu(wname)
            for pu, factor, s0, s1 in slow_windows:
                slow_exec = intersect_intervals(
                    intersect_intervals(exec_run, on_pu.get(pu, [])),
                    [(s0, s1)],
                )
                if slow_exec:
                    # of the on-core seconds inside the slowed window,
                    # (1−factor) is fault loss, factor is honest work
                    attribute_phase("fault", slow_exec, scale=1.0 - factor)
                    attribute_phase("exec", slow_exec, scale=factor - 1.0)
        off_span = subtract_intervals(running, span_ivs, 0.0, T)
        steal_ivs = merge_intervals(steal_windows.get(wname, []), 0.0, T)
        if steal_ivs:
            attribute_phase(
                "steal", intersect_intervals(off_span, steal_ivs)
            )
            off_span = subtract_intervals(off_span, steal_ivs, 0.0, T)
        attribute_phase("pool_overhead", off_span)
        if storm_ivs:
            attribute_phase("fault", intersect_intervals(ready, storm_ivs))
            attribute_phase(
                "ready", subtract_intervals(ready, storm_ivs, 0.0, T)
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
            "fault", intersect_intervals(parked, fault_park_src)
        )
        parked = subtract_intervals(parked, fault_park_src, 0.0, T)
        gc_park = intersect_intervals(parked, gc_ivs)
        attribute_phase("gc", gc_park)
        if gc_mult > 1.0 and gc_park:
            # the amplified share of the pause is the fault's doing
            move = 1.0 - 1.0 / gc_mult
            attribute_phase("fault", gc_park, scale=move)
            attribute_phase("gc", gc_park, scale=-move)
        rem = subtract_intervals(parked, gc_ivs, 0.0, T)
        attribute_phase(
            "serial_master", intersect_intervals(rem, master_running)
        )
        rem = subtract_intervals(rem, master_running, 0.0, T)
        attribute_phase("queue_wait", intersect_intervals(rem, queue_ivs))
        attribute_phase(
            "latch_idle", subtract_intervals(rem, queue_ivs, 0.0, T)
        )
        running_ends = [e for _s, e in running]
        for s in my_spans:
            exec_by_uid[s.uid] = _window_seconds(
                running, running_ends, s.started, s.finished
            )

    window_exec: List[Tuple[PhaseWindow, List[Tuple[str, float]]]] = []
    for w in windows:
        tasks = [
            (s.uid, exec_by_uid.get(s.uid, 0.0))
            for s in spans
            if w.begin <= s.started < w.end
        ]
        window_exec.append((w, tasks))

    return RunObservation(
        workload=workload,
        n_threads=n_threads,
        steps=result.steps,
        sim_seconds=T,
        class_phase_seconds=acc,
        window_exec=window_exec,
        serial_intervals=serial_spine,
        gc_seconds=interval_seconds(gc_ivs),
        result=result,
    )


# -- kernel shares ----------------------------------------------------------


def kernel_shares(
    reports,
    params: Optional[CostParams] = None,
    fuse_rebuild: bool = True,
) -> Dict[str, float]:
    """Fraction of the forces phase's modeled cost owed to each kernel.

    Weights each kernel's flops and (amplification-scaled) bytes the
    same way the cost model prices them, then normalizes.  When
    rebuilds are fused into the force tasks (the paper's design) the
    rebuild work appears as its own pseudo-kernel.
    """
    p = params if params is not None else DEFAULT_COST_PARAMS

    def weight(pw) -> float:
        return pw.flops * p.cycles_per_flop + _CYCLES_PER_BYTE * (
            pw.bytes_irregular * p.irregular_amplification
            + pw.bytes_regular * p.regular_amplification
        )

    totals: Dict[str, float] = {}
    for report in reports:
        for kernel, pw in report.kernel_work.items():
            totals[kernel] = totals.get(kernel, 0.0) + weight(pw)
        if fuse_rebuild and report.rebuilt:
            rb = report.phase_work.get("rebuild")
            if rb is not None and (rb.flops or rb.bytes_irregular):
                totals["rebuild"] = totals.get("rebuild", 0.0) + weight(rb)
    grand = sum(totals.values())
    if grand <= 0:
        return {}
    return {k: v / grand for k, v in sorted(totals.items())}


# -- the decomposition ------------------------------------------------------


@dataclass
class AttributionResult:
    """The conserved decomposition of one run's speedup loss."""

    workload: str
    machine: str
    n_threads: int
    steps: int
    baseline_seconds: float
    achieved_seconds: float
    #: phase → bucket → seconds of wall-clock lost to that bucket
    by_phase: Dict[str, Dict[str, float]]
    #: class → phase → seconds (the fine-grained view behind by_phase)
    classes_by_phase: Dict[str, Dict[str, float]]
    #: kernel → seconds of the forces-phase work inflation it owns
    kernel_inflation: Dict[str, float]
    critical_path: CriticalPath
    observation: RunObservation = field(repr=False, default=None)
    baseline: RunObservation = field(repr=False, default=None)

    @property
    def ideal_seconds(self) -> float:
        return self.baseline_seconds / self.n_threads

    @property
    def achieved_speedup(self) -> float:
        return (
            self.baseline_seconds / self.achieved_seconds
            if self.achieved_seconds
            else 0.0
        )

    @property
    def gap_seconds(self) -> float:
        """Wall seconds lost versus perfect scaling (>= 0 normally)."""
        return self.achieved_seconds - self.ideal_seconds

    @property
    def buckets(self) -> Dict[str, float]:
        """Bucket → seconds, summed over phases (conserved vs the gap)."""
        out = {b: 0.0 for b in BUCKETS}
        for per_bucket in self.by_phase.values():
            for b, v in per_bucket.items():
                out[b] += v
        return out

    @property
    def bucket_total(self) -> float:
        return sum(self.buckets.values())

    def conservation_error(self) -> float:
        """|gap − Σ buckets| — should be float round-off only."""
        return abs(self.gap_seconds - self.bucket_total)

    def dominant(self) -> Tuple[str, str]:
        """(phase, bucket) contributing the most loss."""
        best = ("", "")
        best_v = float("-inf")
        for phase, per_bucket in self.by_phase.items():
            for bucket, v in per_bucket.items():
                if v > best_v:
                    best, best_v = (phase, bucket), v
        return best

    def speedup_bound(self) -> float:
        """Upper bound on speedup from the critical path (T₁ / T_cp)."""
        cp = self.critical_path.seconds
        return self.baseline_seconds / cp if cp > 0 else float("inf")

    def folded_stacks(self) -> List[str]:
        """Collapsed-stack flamegraph lines; see :mod:`repro.obs.export`."""
        from repro.obs.export import folded_stack_lines

        shares = None
        if self.kernel_inflation:
            total = sum(self.kernel_inflation.values())
            if total > 0:
                shares = {
                    k: v / total for k, v in self.kernel_inflation.items()
                }
        return folded_stack_lines(
            self.observation.class_phase_seconds,
            kernel_shares=shares,
            root=self.workload,
        )


def attribute_observations(
    obs: RunObservation,
    base: RunObservation,
    reports=None,
    *,
    machine: str = "",
    params: Optional[CostParams] = None,
    fuse_rebuild: bool = True,
) -> AttributionResult:
    """Pure decomposition step: difference two observations.

    Bucket value = (worker-seconds at N − worker-seconds at 1) / N per
    class and phase, which telescopes exactly to achieved − T₁/N.
    """
    n = obs.n_threads
    phases = obs.phases()
    for p in base.phases():
        if p not in phases:
            phases.append(p)
    classes_by_phase: Dict[str, Dict[str, float]] = {}
    by_phase: Dict[str, Dict[str, float]] = {
        p: {b: 0.0 for b in BUCKETS} for p in phases
    }
    for cls in CLASSES:
        here = obs.class_phase_seconds.get(cls, {})
        there = base.class_phase_seconds.get(cls, {})
        per_phase = {}
        for p in phases:
            delta = (here.get(p, 0.0) - there.get(p, 0.0)) / n
            per_phase[p] = delta
            by_phase[p][CLASS_TO_BUCKET[cls]] += delta
        classes_by_phase[cls] = per_phase

    shares = kernel_shares(
        reports, params=params, fuse_rebuild=fuse_rebuild
    ) if reports is not None else {}
    forces_inflation = by_phase.get("forces", {}).get("work_inflation", 0.0)
    kernel_inflation = {
        k: share * forces_inflation for k, share in shares.items()
    }

    return AttributionResult(
        workload=obs.workload,
        machine=machine,
        n_threads=n,
        steps=obs.steps,
        baseline_seconds=base.sim_seconds,
        achieved_seconds=obs.sim_seconds,
        by_phase=by_phase,
        classes_by_phase=classes_by_phase,
        kernel_inflation=kernel_inflation,
        critical_path=critical_path(
            obs.window_exec, obs.serial_intervals, obs.sim_seconds
        ),
        observation=obs,
        baseline=base,
    )


def attribute(
    workload: Union[str, object],
    n_threads: int,
    *,
    spec: Union[str, MachineSpec] = CORE_I7_920,
    steps: int = 5,
    seed: int = 0,
    trace=None,
    baseline: Optional[RunObservation] = None,
    params: Optional[CostParams] = None,
    fault_plan=None,
    **run_kwargs,
) -> AttributionResult:
    """End-to-end attribution for one workload × thread count.

    Runs the serial physics once (or reuses ``trace``), replays it at 1
    and at ``n_threads`` workers on fresh simulated machines, and
    returns the conserved decomposition.  ``baseline`` lets sweeps
    reuse the 1-thread observation.  A ``fault_plan`` is armed on the
    ``n_threads`` observation only — the baseline stays fault-free, so
    the new ``fault_loss`` bucket measures pure injected loss.
    """
    if isinstance(spec, str):
        from repro.machine import MACHINES

        spec = MACHINES[spec]
    if isinstance(workload, str):
        wl = BUILDERS[resolve_workload(workload)]()
    else:
        wl = workload
    if trace is None:
        trace = capture_trace(wl, steps)
    kwargs = dict(run_kwargs)
    if params is not None:
        kwargs["params"] = params
    if baseline is None:
        baseline = observe_run(
            trace, wl.system.n_atoms, spec, 1,
            seed=seed, name=wl.name, workload=wl.name, **kwargs,
        )
    if n_threads == 1 and fault_plan is None:
        obs = baseline
    else:
        obs = observe_run(
            trace, wl.system.n_atoms, spec, n_threads,
            seed=seed, name=wl.name, workload=wl.name,
            fault_plan=fault_plan, **kwargs,
        )
    return attribute_observations(
        obs, baseline, trace,
        machine=spec.name, params=params,
        fuse_rebuild=kwargs.get("fuse_rebuild", True),
    )


# -- reports ----------------------------------------------------------------


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:9.3f}"


def render_attribution(res: AttributionResult) -> str:
    """ASCII decomposition report (the `repro attribute` output)."""
    lines: List[str] = []
    n = res.n_threads
    lines.append(
        f"speedup-loss attribution: {res.workload} x{n} threads on "
        f"simulated {res.machine} ({res.steps} steps)"
    )
    lines.append(
        f"  baseline (1 thread) {_fmt_ms(res.baseline_seconds)} ms    "
        f"ideal (T1/{n}) {_fmt_ms(res.ideal_seconds)} ms"
    )
    lines.append(
        f"  achieved            {_fmt_ms(res.achieved_seconds)} ms    "
        f"speedup {res.achieved_speedup:.2f}x of ideal {n:.2f}x"
    )
    lines.append(
        f"  gap to ideal        {_fmt_ms(res.gap_seconds)} ms    "
        f"buckets sum {_fmt_ms(res.bucket_total)} ms "
        f"(residual {res.conservation_error() * 1e3:.2e} ms)"
    )
    lines.append("")
    header = f"{'phase':<10}" + "".join(f"{b:>15}" for b in BUCKETS)
    lines.append(header + f"{'total':>15}")
    lines.append("-" * len(header + "         total"))
    phases = [p for p in res.by_phase if p != SERIAL_PHASE]
    phases.append(SERIAL_PHASE)
    totals = {b: 0.0 for b in BUCKETS}
    for p in phases:
        per_bucket = res.by_phase.get(p, {})
        row = f"{p:<10}"
        for b in BUCKETS:
            v = per_bucket.get(b, 0.0)
            totals[b] += v
            row += f"{v * 1e3:>12.3f} ms"
        row += f"{sum(per_bucket.values()) * 1e3:>12.3f} ms"
        lines.append(row)
    row = f"{'total':<10}"
    for b in BUCKETS:
        row += f"{totals[b] * 1e3:>12.3f} ms"
    row += f"{res.bucket_total * 1e3:>12.3f} ms"
    lines.append(row)
    if res.kernel_inflation:
        # an N=1 or zero-work run has zero inflation in every kernel;
        # report flat 0% shares rather than dividing by a zero total
        total = sum(res.kernel_inflation.values())
        parts = ", ".join(
            f"{k} {v * 1e3:.3f} ms "
            f"({(v / total * 100) if total > 0 else 0.0:.1f}%)"
            for k, v in sorted(
                res.kernel_inflation.items(), key=lambda kv: -kv[1]
            )
        )
        lines.append("")
        lines.append(f"forces-phase work inflation by kernel: {parts}")
    cp = res.critical_path
    cp_pct = (
        cp.seconds / res.achieved_seconds * 100
        if res.achieved_seconds > 0
        else 0.0
    )
    lines.append("")
    lines.append(
        f"critical path {cp.seconds * 1e3:.3f} ms "
        f"({cp_pct:.1f}% of achieved); "
        f"speedup upper bound on this machine {res.speedup_bound():.2f}x "
        f"(parallelism {cp.parallelism:.2f})"
    )
    share = cp.phase_share()
    lines.append(
        "  critical-path share: "
        + ", ".join(
            f"{p} {v * 100:.1f}%"
            for p, v in sorted(share.items(), key=lambda kv: -kv[1])
        )
    )
    phase, bucket = res.dominant()
    gap = res.gap_seconds
    dom = res.by_phase.get(phase, {}).get(bucket, 0.0)
    pct = dom / gap * 100 if gap > 0 else 0.0
    lines.append(
        f"dominant loss: {bucket} in phase {phase!r} "
        f"({pct:.1f}% of the gap)"
    )
    return "\n".join(lines)


def attribution_csv(results: Sequence[AttributionResult]) -> str:
    """Long-form CSV: one row per workload × threads × phase × bucket."""
    lines = ["workload,machine,threads,phase,bucket,seconds"]
    for res in results:
        for phase, per_bucket in res.by_phase.items():
            for bucket, v in per_bucket.items():
                lines.append(
                    f"{res.workload},{res.machine},{res.n_threads},"
                    f"{phase},{bucket},{v!r}"
                )
    return "\n".join(lines) + "\n"


def result_to_dict(res: AttributionResult) -> dict:
    """JSON-ready summary of one attribution (bench schema row)."""
    phase, bucket = res.dominant()
    return {
        "workload": res.workload,
        "machine": res.machine,
        "threads": res.n_threads,
        "steps": res.steps,
        "baseline_seconds": res.baseline_seconds,
        "ideal_seconds": res.ideal_seconds,
        "achieved_seconds": res.achieved_seconds,
        "speedup": res.achieved_speedup,
        "ideal_speedup": float(res.n_threads),
        "gap_seconds": res.gap_seconds,
        "buckets": res.buckets,
        "by_phase": res.by_phase,
        "kernel_inflation": res.kernel_inflation,
        "critical_path_seconds": res.critical_path.seconds,
        "speedup_bound": res.speedup_bound(),
        "parallelism": res.critical_path.parallelism,
        "conservation_error": res.conservation_error(),
        "dominant_phase": phase,
        "dominant_bucket": bucket,
    }


#: schema of the attribution sweep payload (``runcache.attribution_sweep``)
BENCH_SCHEMA = "repro.attribution.bench/1"
