"""OS scheduler model: run queues, placement, migration, affinity.

The paper observed (§V-B, Fig. 2) that "the Java runtime, in concert
with the underlying operating system, can migrate a thread between
various cores ... particularly frequent when threads encounter
synchronization operations", and that without pinning a worker thread
visits every core of a quad-core within a second.  This scheduler
reproduces that behaviour:

* each PU (hardware thread) has a FIFO run queue served by a dispatcher
  process;
* when a thread becomes runnable (new burst, or wakeup after a park at a
  lock/barrier), the scheduler *places* it: it prefers the last PU
  ("some degree of affinity with the previously assigned core") but
  consults load and, with probability ``migrate_prob``, re-places the
  thread by load alone — modelling timer interrupts, daemons and the
  kernel's load balancer;
* an affinity mask (the ``sched_setaffinity`` analog used through JNI in
  §V-B) restricts the candidate PU set;
* quantum expiry preempts a thread when other work waits on its queue;
* running on a PU whose SMT sibling is busy slows both (HyperThreading).

All randomness comes from one seeded generator, so traces are exactly
reproducible.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.des import FifoStore, Timeout


@dataclass
class SchedulerTrace:
    """Ground-truth record of scheduling decisions.

    ``residency[thread][pu]`` accumulates seconds executed on each PU —
    the data behind the paper's Fig. 2 heat map.  ``events`` is the raw
    ordered log of (time, thread, pu, what).
    """

    events: List[Tuple[float, str, int, str]] = field(default_factory=list)
    residency: Dict[str, Dict[int, float]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(float))
    )
    migrations: Dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    dispatches: Dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    record_events: bool = True
    #: owning simulator — when set, every recorded event is mirrored onto
    #: its trace bus as ``sched.<what>`` (ready/run/preempt/done/migrate)
    #: for full-stream subscribers (a firehose site)
    _sim: object = field(default=None, repr=False, compare=False)

    def record(self, time: float, thread: str, pu: int, what: str) -> None:
        """Append one raw scheduling event."""
        if self.record_events:
            self.events.append((time, thread, pu, what))
        sim = self._sim
        if sim is not None and sim._firehose:
            kind, _, label = what.partition(":")
            if label:
                sim.emit(f"sched.{kind}", thread, ("pu", pu), ("label", label))
            else:
                sim.emit(f"sched.{kind}", thread, ("pu", pu))

    def add_residency(self, thread: str, pu: int, dt: float) -> None:
        """Accumulate executed seconds for (thread, pu)."""
        self.residency[thread][pu] += dt

    def cores_visited(self, thread: str) -> int:
        """How many distinct PUs the thread has executed on."""
        return sum(1 for v in self.residency[thread].values() if v > 0)

    def residency_matrix(self, threads: List[str], n_pus: int):
        """Rows = threads, cols = PUs, values = seconds executed there."""
        mat = np.zeros((len(threads), n_pus))
        for i, t in enumerate(threads):
            for pu, sec in self.residency[t].items():
                mat[i, pu] = sec
        return mat


class Scheduler:
    """Places runnable threads on PUs and time-slices them."""

    def __init__(
        self,
        machine,
        quantum: float = 0.002,
        migrate_prob: float = 0.25,
        rebalance_prob: float = 0.015,
        smt_throughput: float = 0.62,
        ctx_switch: float = 1e-6,
        seed: int = 0,
    ):
        self.machine = machine
        self.sim = machine.sim
        self.topology = machine.topology
        self.quantum = quantum
        self.migrate_prob = migrate_prob
        self.rebalance_prob = rebalance_prob
        self.smt_throughput = smt_throughput
        self.ctx_switch = ctx_switch
        self._rng = random.Random(seed)
        n = self.topology.spec.n_pus
        self.runqueues: List[FifoStore] = [
            FifoStore(self.sim, name=f"rq{p}") for p in range(n)
        ]
        self._running: List[Optional[object]] = [None] * n
        # tasks submitted to a PU but not yet marked running: a put()
        # hands the thread straight to a blocked dispatcher, leaving it
        # invisible to len(runqueue); without this counter simultaneous
        # placements pile onto one PU while others idle
        self._pending: List[int] = [0] * n
        # topology is immutable, but llc_of/smt_siblings build fresh
        # lists per call — placement consults them for every runnable
        # thread, so flatten them into indexed tables once
        self._llc_of: Tuple[int, ...] = tuple(
            self.topology.llc_of(p) for p in range(n)
        )
        self._smt_other: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(s for s in self.topology.smt_siblings(p) if s != p)
            for p in range(n)
        )
        # run-queue depth is read per candidate PU per placement; index
        # the underlying deques directly instead of FifoStore.__len__
        self._rq_items = [rq._items for rq in self.runqueues]
        # incrementally maintained count of *busy* SMT siblings per PU
        # (busy = running or pending work); placement reads this for
        # every candidate, so the flip points in submit()/_dispatch()
        # keep it current instead of rescanning siblings per query
        self._busy_sibs: List[int] = [0] * n
        #: incrementally maintained per-PU load index: ``_loads[p] ==
        #: load(p)`` at every placement.  Every change to a load input
        #: (run-queue depth, pending count, running flag, busy-sibling
        #: count) re-indexes that PU through _index_load(), except a
        #: dispatch, whose two changes cancel
        self._loads: List[float] = [0.0] * n
        #: (queue + pending + running, busy siblings) -> load, filled by
        #: load()'s own repeated ``+= 0.45`` so each value is its float
        self._smt_loads: Dict[Tuple[float, int], float] = {}
        #: (affinity tuple, llc id) -> candidate PUs under that LLC;
        #: affinity masks are few and stable, so this saturates quickly
        self._local_pools: Dict[Tuple[Tuple[int, ...], int], List[int]] = {}
        self.trace = SchedulerTrace(_sim=self.sim)
        for p in range(n):
            self.sim.spawn(self._dispatch(p), name=f"cpu{p}", daemon=True)

    # -- placement ---------------------------------------------------------

    def load(self, pu: int) -> float:
        """Instantaneous load metric used for placement decisions."""
        l = (
            len(self._rq_items[pu])
            + self._pending[pu]
            + (1.0 if self._running[pu] else 0.0)
        )
        # one += per busy sibling, exactly like the original sibling
        # scan, so the float result is bit-identical
        k = self._busy_sibs[pu]
        while k:  # a busy HT sibling makes this PU less attractive
            l += 0.45
            k -= 1
        return l

    def _index_load(self, pu: int, queued: Optional[int] = None) -> None:
        """Refresh ``_loads[pu]`` to :meth:`load`'s value.  ``queued``
        overrides the run-queue depth: a dispatcher about to pop its
        queue indexes the depth after the (synchronous) pop."""
        l = (
            (len(self._rq_items[pu]) if queued is None else queued)
            + self._pending[pu]
            + (1.0 if self._running[pu] else 0.0)
        )
        k = self._busy_sibs[pu]
        if k:
            key = (l, k)
            smt = self._smt_loads.get(key)
            if smt is None:
                smt = l
                while k:  # exactly load()'s accumulation
                    smt += 0.45
                    k -= 1
                self._smt_loads[key] = smt
            l = smt
        self._loads[pu] = l

    def choose_pu(self, thread) -> int:
        """Pick a PU within the thread's affinity mask.

        Policy mirrors the paper's description: "the scheduler will place
        it on a core based on the system load and some degree of affinity
        with the previously assigned core".  Like CFS scheduling
        domains, balancing prefers PUs under the thread's current LLC;
        it spills to other cache domains only when the local domain is
        distinctly busier.  Loads come from the incremental index, which
        equals :meth:`load` for every PU at this point.
        """
        aff = thread.affinity_list
        if len(aff) == 1:
            return aff[0]
        last = thread.last_pu
        loads = self._loads
        roll = self._rng.random()
        wander = roll < self.migrate_prob
        # an idle last PU keeps the thread unless it wanders; no other
        # PU's load matters then, so the scan below is skipped
        if not wander and last in thread.affinity and loads[last] == 0:
            return last
        # a rarer event models the kernel's idle balancer pulling the
        # thread to any socket; ordinary wander stays within the domain
        rebalance = roll < self.rebalance_prob
        global_best = min([loads[p] for p in aff])
        pool = aff
        best = global_best
        if last is not None and not rebalance:
            # CFS-style domain preference: stay under the current LLC
            # unless the local domain is distinctly busier; a wander
            # event models the idle balancer pulling the thread anywhere
            llc_of = self._llc_of
            key = (aff, llc_of[last])
            local = self._local_pools.get(key)
            if local is None:
                local = [p for p in aff if llc_of[p] == llc_of[last]]
                self._local_pools[key] = local
            if local:
                local_best = loads[local[0]]
                for p in local:
                    v = loads[p]
                    if v < local_best:
                        local_best = v
                if local_best <= global_best + 0.25:
                    pool = local
                    best = local_best
        cands = [p for p in pool if loads[p] == best]
        if last in cands and not wander:
            return last
        return self._rng.choice(cands)

    def submit(self, thread) -> int:
        """Enqueue a runnable thread; returns the chosen PU."""
        pu = self.choose_pu(thread)
        if thread.last_pu is not None and pu != thread.last_pu:
            thread.pending_migration = True
            self.trace.migrations[thread.name] += 1
            self.trace.record(self.sim.now, thread.name, pu, "migrate")
        if self._pending[pu] == 0 and self._running[pu] is None:
            # idle -> busy: this PU now burdens its SMT siblings
            for s in self._smt_other[pu]:
                self._busy_sibs[s] += 1
                self._index_load(s)
        self._pending[pu] += 1
        self.trace.record(self.sim.now, thread.name, pu, "ready")
        self.runqueues[pu].put(thread)
        self._index_load(pu)
        return pu

    # -- dispatch loop -------------------------------------------------------

    def _dispatch(self, pu: int):
        """Daemon process serving one PU's run queue."""
        sim = self.sim
        rq = self.runqueues[pu]
        rq_items = self._rq_items[pu]
        machine = self.machine
        trace = self.trace
        record = trace.record
        residency = trace.add_residency
        dispatches = trace.dispatches
        quantum = self.quantum
        pending = self._pending
        running = self._running
        llc = self._llc_of[pu]
        smt_other = self._smt_other[pu]
        smt_throughput = self.smt_throughput
        # one mutable Timeout per dispatcher: the request is consumed
        # synchronously at the yield, so rewriting .delay per slice is
        # safe and saves an allocation every quantum
        slice_timeout = Timeout(0.0)
        index_load = self._index_load
        while True:
            if rq_items:
                # the get below pops synchronously: index that depth now
                index_load(pu, len(rq_items) - 1)
            thread = yield rq.get()
            if thread is None:
                return
            # no re-index: one fewer pending and one more running leave
            # load() at the same integer-valued float (a thread reaches
            # a dispatcher only while it is pending and the PU is idle)
            pending[pu] -= 1
            running[pu] = thread
            dispatches[thread.name] += 1
            cost = thread.pending_cost
            label = cost.label if cost is not None else ""
            record(sim.now, thread.name, pu, f"run:{label}")
            machine.on_dispatch(thread, pu)
            thread.current_pu = pu
            preempted = False
            faults = machine.faults
            remaining = thread.burst_remaining
            while remaining > 1e-12:
                factor = 1.0
                for sib in smt_other:  # a busy SMT sibling slows this PU
                    if running[sib] is not None:
                        factor = smt_throughput
                        break
                if faults is not None:
                    # straggler core: the PU retires work at a fraction
                    # of its rate for the fault window (re-evaluated per
                    # slice, so windows land at slice granularity)
                    factor *= faults.speed_factor(pu)
                need = remaining / factor
                slice_wall = quantum if quantum < need else need
                t0 = sim.now
                # float() mirrors Timeout.__init__'s cast and is a guard:
                # the replay's cost plans carry Python floats, but a
                # WorkCost built elsewhere (user code, tests) may carry
                # numpy scalars, and the sim clock must stay float
                slice_timeout.delay = float(slice_wall)
                yield slice_timeout
                dt = sim.now - t0
                remaining -= dt * factor
                thread.cpu_time += dt
                residency(thread.name, pu, dt)
                if remaining > 1e-12 and rq_items:
                    preempted = True
                    break
            thread.burst_remaining = remaining
            thread.current_pu = None
            thread.last_pu = pu
            thread.last_llc = llc
            running[pu] = None
            index_load(pu)
            if pending[pu] == 0:
                # busy -> idle: lift the SMT burden off the siblings
                # (a preempt resubmit below may immediately restore it)
                for s in self._smt_other[pu]:
                    self._busy_sibs[s] -= 1
                    index_load(s)
            if preempted:
                record(sim.now, thread.name, pu, "preempt")
                machine.on_burst_pause(thread, pu)
                self.submit(thread)
            else:
                record(sim.now, thread.name, pu, "done")
                machine.on_burst_end(thread, pu)
                thread._burst_done.fire(sim=sim)
