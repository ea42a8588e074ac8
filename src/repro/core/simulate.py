"""Replaying captured work traces on the simulated machine.

``capture_trace`` runs the *real* serial engine and keeps each step's
work counts; :class:`SimulatedParallelRun` then replays those counts as
the §II-B parallel execution — master thread dispatching per-thread
tasks phase by phase through a :class:`SimExecutorService`, closing
each phase with a countdown latch — on a :class:`SimMachine`.  One
physics run therefore prices any thread count, machine, pinning
topology, queue configuration, or instrumentation setting.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.concurrent import QueueMode, SimExecutorService
from repro.concurrent.simexec import Instrumentation
from repro.core.costmodel import (
    DEFAULT_COST_PARAMS,
    CostParams,
    MachineCostModel,
)
from repro.core.partition import (
    balanced_partition,
    block_partition,
    guided_partition,
)
from repro.des import SyncTimeout, Timeout
from repro.jvm.gc import GcModel
from repro.machine.machine import SimMachine
from repro.md.engine import StepReport


def capture_trace(workload, n_steps: int) -> List[StepReport]:
    """Run the serial engine for ``n_steps`` and return its reports
    (the physics runs once; replays are pure timing)."""
    engine = workload.make_engine()
    engine.prime()
    return engine.run(n_steps)


@dataclass
class RunResult:
    """Outcome of one simulated parallel run."""

    sim_seconds: float
    steps: int
    n_threads: int
    phase_seconds: Dict[str, float]
    #: per-phase list of latch skews (last minus first arrival)
    phase_skews: Dict[str, List[float]]
    #: per-worker busy seconds (what JaMON-style monitors would report)
    worker_busy: List[float]
    tasks_executed: List[int]
    migrations: Dict[str, int]
    #: stop-the-world collections injected during the run
    gc_pauses: int = 0
    gc_pause_seconds: float = 0.0
    #: (start, end) simulated-time window of every injected GC pause
    gc_windows: List[tuple] = field(default_factory=list)
    #: uids of tasks the self-healing executor re-issued (fault runs)
    reissued: List[str] = field(default_factory=list)
    #: indices of workers that crashed during the run
    dead_workers: List[int] = field(default_factory=list)
    #: realized FaultWindow records when a fault plan was armed
    fault_windows: List[object] = field(default_factory=list)
    #: per-worker successful-steal counts (STEALING pools; else empty)
    steals: List[int] = field(default_factory=list)
    machine: SimMachine = field(repr=False, default=None)

    @property
    def seconds_per_step(self) -> float:
        return self.sim_seconds / self.steps if self.steps else 0.0

    @property
    def updates_per_second(self) -> float:
        """The paper's headline display metric."""
        return 1.0 / self.seconds_per_step if self.steps else 0.0

    def mean_skew(self, phase: str = "forces") -> float:
        """Mean latch skew (last minus first arrival) of one phase."""
        skews = self.phase_skews.get(phase, [])
        return float(np.mean(skews)) if skews else 0.0


class SimulatedParallelRun:
    """One parallel MW execution on the simulated machine.

    Parameters
    ----------
    trace:
        Step reports from :func:`capture_trace`.
    n_atoms:
        Atom count of the traced workload.
    machine:
        A fresh :class:`SimMachine` (consumed by this run).
    n_threads:
        Worker-pool size.
    affinities:
        Optional per-worker PU masks (pinning experiments); None = OS.
    partition:
        ``"block"`` (the paper's 1/N split) or ``"balanced"``
        (equalizes measured force work; the partition ablation).
    queue_mode / instrumentation / params / fuse_rebuild:
        See :class:`SimExecutorService` and :class:`MachineCostModel`.
        ``QueueMode.STEALING`` swaps in a
        :class:`~repro.concurrent.stealing.StealingExecutorService`.
    assign:
        MULTI-queue phase-submit assignment policy (see
        ``ASSIGN_POLICIES``): ``"owner-index"`` (the paper's implicit
        task-i→queue-i wiring), ``"round-robin"``, or
        ``"cost-balanced"``.
    chunk / chunk_factor:
        Task granularity of the irregular force phases (forces and
        neighbor rebuild; uniform phases always run one task per
        worker).  ``"thread"`` is the paper's §II-B one-task-per-worker
        decomposition; ``"fixed"`` issues ``n_threads * chunk_factor``
        same-partition-policy chunks (finer grains for stealing to
        balance); ``"guided"`` issues decreasing guided-self-scheduling
        chunks (GSS defines its own range sizes, so ``partition`` only
        shapes the uniform phases).  Each chunk writes a privatized
        force copy the reduce phase must read — finer granularity is
        priced, not free.
    steal_policy / steal_cost_cycles:
        STEALING-pool victim ordering and per-probe toll (ignored for
        other queue modes).
    pop_overhead_cycles:
        SINGLE-queue shared-dequeue toll (see SimExecutorService).
    repeat:
        Replay the trace this many times (longer simulated runs).
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` armed on this
        run; arming auto-enables the executor watchdog (0.5 ms sweeps)
        unless ``watchdog_interval`` says otherwise.
    watchdog_interval:
        Executor self-healing sweep period in simulated seconds; None
        (without a fault plan) spawns no watchdog, keeping fault-free
        traces byte-identical to the unhardened executor's.
    phase_timeout:
        Master-side bound on one phase's latch wait.  On expiry the
        master forces a watchdog sweep and retries; a phase making no
        progress with nothing re-issued raises
        :class:`~repro.des.errors.SyncTimeout` instead of hanging.
    """

    def __init__(
        self,
        trace: Sequence[StepReport],
        n_atoms: int,
        machine: SimMachine,
        n_threads: int,
        *,
        affinities: Optional[Sequence] = None,
        partition: str = "block",
        queue_mode: QueueMode = QueueMode.SINGLE,
        assign: str = "owner-index",
        chunk: str = "thread",
        chunk_factor: int = 1,
        steal_policy: str = "locality",
        steal_cost_cycles: float = 400.0,
        pop_overhead_cycles: float = 150.0,
        instrumentation: Optional[Instrumentation] = None,
        params: Optional[CostParams] = None,
        fuse_rebuild: bool = True,
        repeat: int = 1,
        name: str = "wl",
        master_affinity: Optional[Iterable[int]] = None,
        gc_model: Optional[GcModel] = None,
        fault_plan=None,
        watchdog_interval: Optional[float] = None,
        phase_timeout: Optional[float] = None,
    ):
        if not trace:
            raise ValueError("empty trace")
        if repeat < 1:
            raise ValueError(f"repeat must be >= 1: {repeat}")
        params = params if params is not None else DEFAULT_COST_PARAMS
        self.trace = list(trace)
        self.machine = machine
        self.n_threads = n_threads
        self.repeat = repeat
        if chunk_factor < 1:
            raise ValueError(f"chunk_factor must be >= 1: {chunk_factor}")
        if partition == "block":
            weights = None
            ranges = block_partition(n_atoms, n_threads)
        elif partition == "balanced":
            weights = self.trace[0].phase_work["forces"].per_atom + 1e-9
            ranges = balanced_partition(weights, n_threads)
        else:
            raise ValueError(f"unknown partition {partition!r}")
        # force-phase granularity: the irregular phases may run as more
        # (smaller) tasks than workers, feeding the stealing/queue
        # strategies finer grains to balance; uniform phases stay at
        # one task per worker
        if chunk == "thread":
            force_ranges = None
        elif chunk == "fixed":
            n_tasks = n_threads * chunk_factor
            force_ranges = (
                block_partition(n_atoms, n_tasks)
                if weights is None
                else balanced_partition(weights, n_tasks)
            )
        elif chunk == "guided":
            force_ranges = guided_partition(n_atoms, n_threads)
        else:
            raise ValueError(f"unknown chunk {chunk!r}")
        self.ranges = ranges
        self.cost_model = MachineCostModel(
            n_atoms,
            ranges,
            params=params,
            name=name,
            fuse_rebuild=fuse_rebuild,
            hot_bytes_per_step=self._hot_bytes_per_step(params),
            force_ranges=force_ranges,
        )
        if fault_plan is not None and watchdog_interval is None:
            # self-healing must be on to survive an armed fault plan;
            # 0.5 ms sweeps sit well inside the 3–30 ms runs while
            # staying far coarser than individual 80–5000 µs tasks
            watchdog_interval = 5e-4
        if queue_mode is QueueMode.STEALING:
            from repro.concurrent.stealing import StealingExecutorService

            self.pool = StealingExecutorService(
                machine,
                n_threads,
                affinities=affinities,
                instrumentation=instrumentation,
                name=f"{name}-pool",
                watchdog_interval=watchdog_interval,
                assign=assign,
                steal_policy=steal_policy,
                steal_cost_cycles=steal_cost_cycles,
            )
        else:
            self.pool = SimExecutorService(
                machine,
                n_threads,
                queue_mode=queue_mode,
                affinities=affinities,
                instrumentation=instrumentation,
                pop_overhead_cycles=pop_overhead_cycles,
                name=f"{name}-pool",
                watchdog_interval=watchdog_interval,
                assign=assign,
            )
        self.injector = None
        if fault_plan is not None:
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(
                machine, fault_plan, pool=self.pool
            ).arm()
        self.phase_timeout = phase_timeout
        self._master_affinity = master_affinity
        #: optional JVM GC model: the temp-object churn of each step is
        #: recorded, and young-gen collections inject stop-the-world
        #: pauses at step boundaries (another §IV-B imbalance source)
        self.gc_model = gc_model
        self._gc_pauses = 0
        self._gc_pause_seconds = 0.0
        self._gc_windows: List[tuple] = []
        self._temp_bytes = params.temp_bytes_per_term
        self._plans = None

    def _hot_bytes_per_step(self, params: CostParams) -> float:
        """Mean bytes one timestep cycles through (after object-graph
        amplification) — sizes the cache regions; see MachineCostModel."""
        totals = []
        for report in self.trace:
            total = 0.0
            for key in ("forces", "rebuild"):
                work = report.phase_work.get(key)
                if work is None:
                    continue
                total += (
                    work.bytes_irregular * params.irregular_amplification
                    + work.bytes_regular * params.regular_amplification
                )
            totals.append(total)
        return float(np.mean(totals)) if totals else params.working_set_bytes

    def _master_body(self, phase_seconds, phase_skews):
        machine = self.machine
        sim = machine.sim
        cm = self.cost_model
        step_index = 0
        # the per-step cost plan is a pure function of the captured
        # trace, and WorkCost is frozen — price each step once and
        # replay the same objects every repeat instead of rebuilding
        # thousands of Traffic/WorkCost records per pass
        overhead = cm.master_step_overhead()
        plans = self.plans()
        dispatch_costs = {
            len(costs): cm.dispatch_cost(len(costs))
            for phases in plans
            for _, costs in phases
        }
        for _ in range(self.repeat):
            for report, plan in zip(self.trace, plans):
                yield overhead
                for phase_name, costs in plan:
                    yield dispatch_costs[len(costs)]
                    t0 = machine.now
                    # phase markers cost nothing in simulated time (the
                    # bus is observation-only); they let the attribution
                    # layer map every worker instant to an engine phase
                    if sim._subscribers:
                        sim.emit(
                            "phase.begin", phase_name, ("step", step_index)
                        )
                    latch = self.pool.submit_phase(costs)
                    if self.phase_timeout is None:
                        yield latch
                    else:
                        # hardened master: a stalled phase triggers an
                        # immediate watchdog sweep; two sweeps with no
                        # progress and nothing re-issued means the phase
                        # can never finish — fail loudly, don't hang
                        last_count = None
                        while True:
                            ok = yield latch.wait(
                                timeout=self.phase_timeout
                            )
                            if ok:
                                break
                            healed = self.pool.check_workers()
                            if sim._subscribers:
                                sim.emit(
                                    "phase.stall", phase_name,
                                    ("remaining", latch.count),
                                    ("reissued", healed),
                                )
                            if latch.count == last_count and healed == 0:
                                raise SyncTimeout(
                                    f"phase {phase_name!r}",
                                    self.phase_timeout,
                                )
                            last_count = latch.count
                    if sim._subscribers:
                        sim.emit(
                            "phase.end", phase_name,
                            ("step", step_index),
                            ("seconds", machine.now - t0),
                        )
                    phase_seconds[phase_name] += machine.now - t0
                    phase_skews[phase_name].append(latch.skew)
                if self.gc_model is not None:
                    terms = report.phase_work["forces"].terms
                    self.gc_model.recorder.record(
                        "org.mw.math.Vector3",
                        int(self._temp_bytes),
                        count=terms,
                    )
                    event = self.gc_model.maybe_collect(machine.now)
                    if event is not None:
                        pause = event.pause_seconds
                        if machine.faults is not None:
                            # gc_amplify fault: the young-gen pause the
                            # model predicted balloons (full collection)
                            pause *= machine.faults.gc_multiplier
                        self._gc_pauses += 1
                        self._gc_pause_seconds += pause
                        self._gc_windows.append(
                            (machine.now, machine.now + pause)
                        )
                        if sim._subscribers:
                            sim.emit(
                                "gc.pause", "young",
                                ("seconds", pause),
                            )
                        yield Timeout(pause)
                step_index += 1
        self._finished_at = machine.now
        self.pool.shutdown()

    def plans(self) -> list:
        """The per-step phase cost plans — a pure function of the
        trace and pricing configuration (never of the machine or its
        seed), priced once and cached."""
        if self._plans is None:
            cm = self.cost_model
            self._plans = [
                cm.step_phases(report) for report in self.trace
            ]
        return self._plans

    def run(self) -> RunResult:
        """Execute the replay to completion and collect the results."""
        phase_seconds: Dict[str, float] = defaultdict(float)
        phase_skews: Dict[str, List[float]] = defaultdict(list)
        self._finished_at = None
        self.machine.thread(
            self._master_body(phase_seconds, phase_skews),
            "master",
            affinity=self._master_affinity,
        )
        self.machine.run()
        trace = self.machine.scheduler.trace
        finished = (
            self._finished_at
            if self._finished_at is not None
            else self.machine.now
        )
        return RunResult(
            sim_seconds=finished,
            steps=len(self.trace) * self.repeat,
            n_threads=self.n_threads,
            phase_seconds=dict(phase_seconds),
            phase_skews=dict(phase_skews),
            worker_busy=list(self.pool.busy_time),
            tasks_executed=list(self.pool.tasks_executed),
            migrations=dict(trace.migrations),
            gc_pauses=self._gc_pauses,
            gc_pause_seconds=self._gc_pause_seconds,
            gc_windows=list(self._gc_windows),
            reissued=list(self.pool.reissued),
            dead_workers=self.pool.dead_workers,
            fault_windows=(
                self.injector.windows(finished)
                if self.injector is not None
                else []
            ),
            steals=list(getattr(self.pool, "steals", [])),
            machine=self.machine,
        )
