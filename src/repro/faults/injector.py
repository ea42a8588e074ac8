"""Realizing a fault plan as bus-visible events on a live machine.

:class:`FaultInjector` arms one :class:`~repro.faults.plan.FaultPlan`
onto a :class:`~repro.machine.SimMachine` (and, for pool-directed
faults, a :class:`~repro.concurrent.simexec.SimExecutorService`).  Each
fault becomes a daemon process scheduled in simulated time, so
injection is deterministic: the fault fires at its planned instant, in
planned order, every run.

Every injection announces itself on the trace bus:

``fault.inject``  point faults (worker crash, task loss);
``fault.begin`` / ``fault.end``  windowed faults (straggler, preemption
storm, lock stall), with the window's parameters as args.

The machine consults :class:`ActiveFaults` (installed as
``machine.faults``) for the live straggler state — the scheduler
multiplies its slice math by ``speed_factor(pu)`` — and the replay
multiplies injected GC pauses by ``gc_multiplier``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.des import Timeout
from repro.faults.plan import FaultPlan
from repro.machine.background import inject_background_load


@dataclass
class FaultWindow:
    """One realized fault: ``[start, end)`` in simulated seconds.

    Point faults have ``end == start``; windows still open when the run
    ends have ``end is None`` (normalize with :meth:`FaultInjector.windows`).
    """

    kind: str
    start: float
    end: Optional[float] = None
    detail: dict = field(default_factory=dict)


class ActiveFaults:
    """Live fault state the machine consults while running."""

    def __init__(self):
        #: pu -> speed multiplier (< 1) of a currently active straggler
        self._slow: Dict[int, float] = {}
        #: multiplier applied to injected stop-the-world GC pauses
        self.gc_multiplier: float = 1.0

    def speed_factor(self, pu: int) -> float:
        """Execution-rate multiplier for a PU (1.0 = healthy)."""
        return self._slow.get(pu, 1.0)

    @property
    def any_slow(self) -> bool:
        return bool(self._slow)


class FaultInjector:
    """Arms a fault plan on a machine (+ optionally a worker pool)."""

    def __init__(self, machine, plan: FaultPlan, pool=None):
        self.machine = machine
        self.sim = machine.sim
        self.plan = plan
        self.pool = pool
        self.active = ActiveFaults()
        self.active.gc_multiplier = plan.gc_multiplier
        #: realized faults in injection order (point + windowed)
        self.realized: List[FaultWindow] = []
        self._armed = False

    # -- arming -----------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Install ``machine.faults`` and spawn one daemon per fault."""
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        self.machine.faults = self.active
        pool_kinds = {"worker_crash", "task_loss", "lock_stall"}
        for i, fault in enumerate(self.plan):
            if fault.kind in pool_kinds and self.pool is None:
                raise ValueError(
                    f"{fault.kind} needs a worker pool; none was given"
                )
            body = getattr(self, f"_{fault.kind}_body", None)
            if body is not None:
                self.sim.spawn(
                    body(fault), name=f"fault{i}-{fault.kind}", daemon=True
                )
        return self

    def windows(self, end_time: float) -> List[FaultWindow]:
        """Realized faults with open windows clipped to ``end_time``."""
        return [
            FaultWindow(
                w.kind, w.start,
                end_time if w.end is None else w.end,
                dict(w.detail),
            )
            for w in self.realized
        ]

    # -- fault bodies ------------------------------------------------------

    def _worker_crash_body(self, f):
        yield Timeout(f.at)
        worker = f.worker % self.pool.n_threads
        self.sim.emit(
            "fault.inject", "worker_crash",
            ("worker", worker), ("at", self.sim.now),
        )
        self.realized.append(
            FaultWindow(
                "worker_crash", self.sim.now, detail={"worker": worker}
            )
        )
        self.pool.kill_worker(worker, cause="fault:worker_crash")

    def _straggler_body(self, f):
        yield Timeout(f.start)
        self.active._slow[f.pu] = f.factor
        self.sim.emit(
            "fault.begin", "straggler",
            ("pu", f.pu), ("factor", f.factor),
        )
        window = FaultWindow(
            "straggler", self.sim.now,
            detail={"pu": f.pu, "factor": f.factor},
        )
        self.realized.append(window)
        yield Timeout(f.duration)
        self.active._slow.pop(f.pu, None)
        window.end = self.sim.now
        self.sim.emit("fault.end", "straggler", ("pu", f.pu))

    def _preempt_storm_body(self, f):
        yield Timeout(f.start)
        self.sim.emit(
            "fault.begin", "preempt_storm",
            ("pus", ",".join(str(p) for p in f.pus)),
            ("utilization", f.utilization),
        )
        window = FaultWindow(
            "preempt_storm", self.sim.now,
            detail={"pus": list(f.pus), "utilization": f.utilization},
        )
        self.realized.append(window)
        # pinned background hogs; daemon_body self-terminates at the
        # (absolute) end time, so the storm cannot outlive its window,
        # and it fills its window even past the replay's end
        inject_background_load(
            self.machine, f.pus,
            utilization=f.utilization,
            period=f.period,
            duration=self.sim.now + f.duration,
            name_prefix="storm",
            stop_with_workload=False,
        )
        yield Timeout(f.duration)
        window.end = self.sim.now
        self.sim.emit("fault.end", "preempt_storm")

    def _task_loss_body(self, f):
        yield Timeout(f.at)
        # a task handed to a parked worker never rests in a queue, so
        # the loss is intercepted at the hand-off: the ``index``-th
        # submission from now on is dropped before it reaches a queue —
        # outstanding but invisible, exactly what the watchdog's
        # lost-task sweep exists to recover
        state = {"seen": 0}

        def drop(task) -> bool:
            hit = state["seen"] == f.index
            state["seen"] += 1
            if not hit:
                return False
            self.sim.emit("fault.inject", "task_loss", ("uid", task.uid))
            self.realized.append(
                FaultWindow(
                    "task_loss", self.sim.now, detail={"uid": task.uid}
                )
            )
            return True

        self.pool._drop_hooks.append(drop)

    def _lock_stall_body(self, f):
        yield Timeout(f.at)
        lock = (
            self.pool._qlock
            if f.lock in ("queue", "qlock", "")
            else getattr(self.pool, f.lock)
        )
        yield lock.acquire()
        self.sim.emit(
            "fault.begin", "lock_stall",
            ("lock", lock.name), ("duration", f.duration),
        )
        window = FaultWindow(
            "lock_stall", self.sim.now,
            detail={"lock": lock.name, "duration": f.duration},
        )
        self.realized.append(window)
        yield Timeout(f.duration)
        lock.release()
        window.end = self.sim.now
        self.sim.emit("fault.end", "lock_stall", ("lock", lock.name))
