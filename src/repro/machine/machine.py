"""The SimMachine facade and SimThread.

:class:`SimMachine` ties the pieces together: a DES simulator, the
topology, per-LLC warmth states, per-socket memory controllers, and the
OS scheduler.  :class:`SimThread` is the user-facing thread abstraction:
its *body* is a generator that yields

* :class:`~repro.machine.cost.WorkCost` — execute that much work on a
  core (placed by the scheduler; this is where time passes), or
* any DES request (lock acquire, event wait, timeout) — the thread
  *parks*: it holds no core while blocked, and its next burst placement
  may migrate it, exactly the synchronization-driven migration of §V-B.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.des import Event, Lock, Simulator
from repro.machine.cachestate import LlcState
from repro.machine.cost import WorkCost
from repro.machine.memory import MemorySystem
from repro.machine.scheduler import Scheduler
from repro.machine.topology import MachineSpec, Topology


class SimThread:
    """A simulated software thread.

    Parameters
    ----------
    machine:
        The owning :class:`SimMachine`.
    body:
        Generator yielding :class:`WorkCost` and DES requests.
    name:
        Trace name.
    affinity:
        Optional iterable of PU ids (the ``sched_setaffinity`` mask).
        None means all PUs (OS-scheduled).
    """

    def __init__(
        self,
        machine: "SimMachine",
        body,
        name: str,
        affinity: Optional[Iterable[int]] = None,
    ):
        self.machine = machine
        self.name = name
        self.set_affinity(affinity)
        self.last_pu: Optional[int] = None
        self.last_llc: Optional[int] = None
        self.current_pu: Optional[int] = None
        self.burst_remaining: float = 0.0
        self.pending_cost: Optional[WorkCost] = None
        self.pending_migration = False
        self.hot_regions: tuple = ()
        self._burst_done: Optional[Event] = None
        self._streaming = False
        #: wall seconds spent executing on a core
        self.cpu_time = 0.0
        #: number of bursts completed
        self.burst_count = 0
        self.proc = machine.sim.spawn(self._drive(body), name=name)

    def set_affinity(self, affinity: Optional[Iterable[int]]) -> None:
        """Install a new affinity mask (takes effect at next placement)."""
        if affinity is None:
            mask = self.machine.topology.mask_all()
        else:
            mask = frozenset(int(p) for p in affinity)
            bad = mask - set(self.machine.topology.pus())
            if bad:
                raise ValueError(f"affinity references unknown PUs: {sorted(bad)}")
            if not mask:
                raise ValueError("empty affinity mask")
        self.affinity = mask
        # tuple: placement hashes it to cache per-LLC candidate pools
        self.affinity_list = tuple(sorted(mask))

    @property
    def terminated(self) -> Event:
        return self.proc.terminated

    def _drive(self, body):
        value = None
        error: Optional[BaseException] = None
        send = body.send
        burst_name = f"{self.name}.burst"
        submit = self.machine.scheduler.submit
        while True:
            try:
                item = body.throw(error) if error is not None else send(value)
            except StopIteration as stop:
                return stop.value
            error = None
            if isinstance(item, WorkCost):
                self.pending_cost = item
                self.burst_remaining = 0.0
                self._burst_done = Event(name=burst_name)
                submit(self)
                try:
                    yield self._burst_done
                    value = None
                except BaseException as exc:  # interrupt while running
                    error = exc
            else:
                try:
                    value = yield item
                except BaseException as exc:
                    error = exc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimThread({self.name!r}, cpu_time={self.cpu_time:.4f})"


class SimMachine:
    """A deterministic simulated multicore machine.

    Example
    -------
    >>> from repro.machine import SimMachine, CORE_I7_920, WorkCost
    >>> m = SimMachine(CORE_I7_920)
    >>> def body():
    ...     yield WorkCost(cycles=2.66e9)   # one second of arithmetic
    >>> t = m.thread(body(), "worker")
    >>> m.run()
    >>> round(m.now, 2)
    1.0
    """

    def __init__(
        self,
        spec: MachineSpec,
        *,
        seed: int = 0,
        quantum: float = 0.002,
        migrate_prob: float = 0.25,
        smt_throughput: float = 0.62,
        overlap: float = 0.35,
        writeback_fraction: float = 0.5,
    ):
        self.spec = spec
        self.sim = Simulator()
        self.topology = Topology(spec)
        self.llc_states: List[LlcState] = [
            LlcState(i, spec.llc.size_bytes)
            for i in range(self.topology.n_llc_groups)
        ]
        self.memory = MemorySystem(spec, self.topology)
        # burst pricing runs once per dispatched burst; flatten the
        # pu -> llc/controller/socket resolution chains into tuples
        n_pus = spec.n_pus
        self._llc_of_pu = tuple(
            self.llc_states[self.topology.llc_of(p)] for p in range(n_pus)
        )
        self._ctrl_of_pu = tuple(
            self.memory.controller_for_pu(p) for p in range(n_pus)
        )
        self._socket_of_pu = tuple(
            self.topology.socket_of(p) for p in range(n_pus)
        )
        #: per PU, every LLC but its own: a write invalidates these
        self._other_llcs_of_pu = tuple(
            tuple(o for o in self.llc_states if o is not llc)
            for llc in self._llc_of_pu
        )
        #: region name -> socket that last wrote it (home for remote reads)
        self.region_home: Dict[str, int] = {}
        self.overlap = overlap
        self.writeback_fraction = writeback_fraction
        self.scheduler = Scheduler(
            self,
            quantum=quantum,
            migrate_prob=migrate_prob,
            smt_throughput=smt_throughput,
            seed=seed,
        )
        self.threads: List[SimThread] = []
        #: live fault state (repro.faults.injector.ActiveFaults) when a
        #: fault plan is armed; the scheduler multiplies its slice math
        #: by faults.speed_factor(pu) (straggler cores) and the replay
        #: scales injected GC pauses by faults.gc_multiplier
        self.faults = None
        #: set once the workload under study has finished (the replay
        #: master's last step); background daemons end at their next
        #: burst boundary (repro.machine.background.daemon_body)
        self.workload_finished = False

    # -- time --------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation; see :meth:`Simulator.run`."""
        return self.sim.run(until=until)

    # -- construction --------------------------------------------------------

    def thread(
        self, body, name: str, affinity: Optional[Iterable[int]] = None
    ) -> SimThread:
        """Create (and start) a simulated thread from a generator body."""
        t = SimThread(self, body, name, affinity)
        self.threads.append(t)
        return t

    def lock(self, name: str = "") -> Lock:
        """A FIFO mutex living in this machine's simulated time."""
        return Lock(self.sim, name=name)

    # -- cost evaluation -------------------------------------------------------

    def burst_duration(self, pu: int, cost: WorkCost) -> float:
        """Seconds the given work takes on ``pu`` right now.

        Roofline composition: compute and memory streams overlap, so the
        duration is ``max(compute, memory) + overlap * min(...)`` — the
        ``overlap`` parameter (< 1) models imperfect overlap.

        Reads are priced in one fused pass.  Each read updates the LLC
        with :meth:`LlcState.touch`'s arithmetic, inlined, and its
        missed bytes move at the controller's rate.  That rate is
        sampled once per burst, counting the burst itself as one extra
        stream: nothing begins or ends a stream while a burst is
        priced, so it is the rate :meth:`MemoryController.transfer_time`
        would sample for every read and write.  Shared regions homed on
        another socket pay the remote penalty.  Writes then install
        into the LLC, re-home their region, invalidate every other
        LLC's copy and write back at that rate.

        Byte counts are used as given: a Python float or int prices to
        the same doubles that :meth:`LlcState.touch`'s ``float()`` cast
        gives (the cost model's plans carry floats); only a read larger
        than its region is clamped, to ``float(size)``.
        """
        compute = cost.cycles / self.spec.freq_hz
        mem = 0.0
        reads = cost.reads
        writes = cost.writes
        if reads or writes:
            llc = self._llc_of_pu[pu]
            ctrl = self._ctrl_of_pu[pu]
            socket = self._socket_of_pu[pu]
            region_home = self.region_home
            rate = ctrl.effective_rate(1)
            served = ctrl.bytes_served
        if reads:
            remote_rate = rate / ctrl.remote_penalty
            resident = llc._resident
            capacity = llc.capacity
            bytes_hit = llc.bytes_hit
            bytes_missed = llc.bytes_missed
            served_remote = ctrl.bytes_remote
            for t in reads:
                region = t.region
                size = region.size_bytes
                n_bytes = t.n_bytes
                if n_bytes <= 0 or size == 0:
                    continue
                if not n_bytes <= size:  # touch()'s clamp, NaN included
                    n_bytes = float(size)
                name = region.name
                entry = resident.get(name)
                prev = entry[1] if entry else 0.0
                hit = n_bytes * (prev / size)
                miss = n_bytes - hit
                bytes_hit += hit
                bytes_missed += miss
                if miss > 0:
                    new = prev + miss
                    if new > size:
                        new = size
                    resident[name] = (region, new)
                    llc._used += new - prev
                    if llc._used > capacity:
                        llc._evict_overflow(keep=name)
                    home = region_home.get(name) if region.shared else None
                    if home is not None and home != socket:
                        served_remote += miss
                        mem += miss / remote_rate
                    else:
                        mem += miss / rate
                    served += miss
                # always resident here: a miss just stored it (and the
                # overflow eviction keeps it), and no miss means it
                # was resident already (a cold region misses n_bytes)
                resident.move_to_end(name)
            llc.bytes_hit = bytes_hit
            llc.bytes_missed = bytes_missed
            ctrl.bytes_remote = served_remote
        if writes:
            writeback = self.writeback_fraction
            others = self._other_llcs_of_pu[pu]
            for t in writes:
                region = t.region
                name = region.name
                llc.install(region, t.n_bytes)
                region_home[name] = socket
                # coherence: writing invalidates every other cache's
                # copy, so a thread that migrates away finds its data gone
                for other in others:
                    other.evict_region(region)
                wb = t.n_bytes * writeback
                if wb > 0:
                    served += wb
                    mem += wb / rate
        if reads or writes:
            ctrl.bytes_served = served
        if compute <= mem:
            return mem + self.overlap * compute
        return compute + self.overlap * mem

    def migration_penalty(self, thread: SimThread, pu: int) -> float:
        """Cold-cache cost of arriving on a PU under a different LLC.

        The thread's recently used regions are not resident in the new
        LLC; re-fetching the touched bytes is charged up front (and warms
        the new cache)."""
        if not thread.hot_regions:
            return 0.0
        llc = self._llc_of_pu[pu]
        ctrl = self._ctrl_of_pu[pu]
        penalty = 0.0
        for region, n_bytes in thread.hot_regions:
            miss = llc.touch(region, n_bytes)
            penalty += ctrl.transfer_time(miss, extra_streams=1)
        return penalty

    # -- scheduler callbacks ---------------------------------------------------

    def on_dispatch(self, thread: SimThread, pu: int) -> None:
        """Scheduler callback: price a burst as it lands on a PU."""
        cost = thread.pending_cost
        fresh = thread.burst_remaining <= 1e-12 and cost is not None
        if fresh:
            duration = self.burst_duration(pu, cost)
            duration += self.scheduler.ctx_switch
            thread.burst_remaining = duration
            thread.hot_regions = cost._hot_regions
        # cold-cache cost of arriving under a different LLC (applies to
        # both fresh bursts after a park and resumed preempted bursts;
        # for fresh bursts burst_duration() already touched the new LLC,
        # so only charge the explicit penalty on resume)
        if thread.pending_migration:
            if (
                not fresh
                and thread.last_llc is not None
                and self.topology.llc_of(pu) != thread.last_llc
            ):
                thread.burst_remaining += self.migration_penalty(thread, pu)
            thread.pending_migration = False
        if cost is not None and cost._total_bytes > 0:
            self._ctrl_of_pu[pu].begin_stream()
            thread._streaming = True

    def on_burst_pause(self, thread: SimThread, pu: int) -> None:
        """Scheduler callback: the burst was preempted mid-flight."""
        if thread._streaming:
            self._ctrl_of_pu[pu].end_stream()
            thread._streaming = False

    def on_burst_end(self, thread: SimThread, pu: int) -> None:
        """Scheduler callback: the burst completed."""
        if thread._streaming:
            self._ctrl_of_pu[pu].end_stream()
            thread._streaming = False
        thread.burst_count += 1
        thread.pending_cost = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimMachine({self.spec.name!r}, now={self.now:.4f})"
