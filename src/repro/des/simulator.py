"""The DES event loop."""

from __future__ import annotations

import heapq
from typing import Callable, Generator, Iterable, Optional

from repro.des.errors import SimulationDeadlock
from repro.des.process import Process
from repro.des.trace import TraceEvent


#: kinds emitted at the high-volume sites (process resume/block, timed
#: waits, lock traffic, latch count-downs), which guard on the count of
#: full-stream subscribers rather than on any subscriber at all
FIREHOSE_KINDS = frozenset({
    "process.resume",
    "process.block",
    "timeout",
    "lock.request",
    "lock.acquire",
    "lock.release",
    "latch.count_down",
})


def is_firehose_kind(kind: str) -> bool:
    """True for a kind only full-stream subscribers can receive: one of
    :data:`FIREHOSE_KINDS`, or a scheduler ``sched.*`` decision."""
    return kind in FIREHOSE_KINDS or kind.startswith("sched.")


class Timer:
    """Handle for a cancellable scheduled callback.

    The heap entry of a cancelled timer is skipped *without advancing
    simulated time*, so a timeout that lost its race (e.g. a latch wait
    that completed in time) does not drag the end of the simulation out
    to its expiry horizon.

    Cancelled entries ("tombstones") are dropped lazily when they reach
    the head of the heap, and compacted wholesale when they outnumber
    live entries (see :meth:`Simulator._compact`) — long chaos runs arm
    and cancel timed waits constantly, and without compaction the dead
    entries would bloat the heap and slow every ``heappush``.
    """

    __slots__ = ("fn", "cancelled", "_sim")

    def __init__(self, fn: Callable, sim: "Optional[Simulator]" = None):
        self.fn = fn
        self.cancelled = False
        #: owning simulator while our heap entry is pending; cleared on
        #: fire so a late cancel() cannot skew the tombstone count
        self._sim = sim

    def cancel(self) -> None:
        """Disarm the timer; its heap entry is lazily discarded."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._tombstones += 1
            sim._maybe_compact()

    def __call__(self, value) -> None:
        if not self.cancelled:
            self._sim = None  # entry consumed; cancel() is now a no-op
            self.fn(value)


class Simulator:
    """Deterministic discrete-event simulator.

    Maintains simulated time (:attr:`now`, an arbitrary unit — the machine
    model uses seconds) and a heap of ``(time, seq, callback, value)``
    entries.  Simultaneous events run in scheduling order (``seq`` is a
    monotone counter), so runs are exactly reproducible.

    The simulator is also the kernel's **event bus**: observers call
    :meth:`subscribe` and receive the :class:`TraceEvent` stream emitted
    by the kernel, the scheduler, and the sim-concurrent runtime — all
    of it, or only the kinds they name.  The high-volume sites
    (:data:`FIREHOSE_KINDS`, ``sched.*``) guard on :attr:`_firehose`,
    the count of full-stream subscribers; every other site guards on
    :attr:`_subscribers`.  With nobody (or only kind-filtered observers
    of low-volume kinds) attached, a firehose site is one integer check,
    and tracing never costs simulated time.
    """

    #: compact the heap when cancelled-timer tombstones exceed this
    #: fraction of its entries (and the heap is big enough to matter)
    COMPACT_FRACTION = 0.5
    COMPACT_MIN_TOMBSTONES = 64

    def __init__(self):
        self.now: float = 0.0
        self._heap: list = []
        self._seq: int = 0
        self._live: set = set()
        self.event_count: int = 0
        #: cancelled-timer entries still sitting in the heap
        self._tombstones: int = 0
        #: number of wholesale tombstone compactions performed
        self.compactions: int = 0
        #: event-bus subscribers as ``(callback, kinds)`` pairs (``kinds``
        #: None = the full stream); low-volume emission sites check its
        #: truthiness inline, so an empty list is the "tracing off" path
        self._subscribers: list = []
        #: full-stream subscribers; the firehose sites guard on this
        self._firehose: int = 0
        #: kind -> callbacks that want it, in subscription order; filled
        #: lazily by emit() and reset by every (un)subscribe
        self._routes: dict = {}

    # -- event bus -------------------------------------------------------

    @property
    def traced(self) -> bool:
        """True when at least one trace subscriber is attached."""
        return bool(self._subscribers)

    def subscribe(
        self,
        callback: Callable[[TraceEvent], None],
        kinds: Optional[Iterable[str]] = None,
    ) -> Callable:
        """Attach a trace subscriber; returns ``callback`` for symmetry
        with :meth:`unsubscribe`.

        ``kinds=None`` delivers the full stream.  A set of kinds
        delivers only those, in stream order.  Firehose kinds are
        emitted only while a full-stream subscriber is attached, so a
        filter naming one would silently miss it: that raises
        :class:`ValueError`.
        """
        if kinds is None:
            self._firehose += 1
        else:
            kinds = frozenset(kinds)
            firehose = sorted(k for k in kinds if is_firehose_kind(k))
            if firehose:
                raise ValueError(
                    f"kind filter names firehose kinds {firehose}: their "
                    f"sites emit only to full-stream subscribers"
                )
        self._subscribers.append((callback, kinds))
        self._routes = {}
        return callback

    def unsubscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Detach a previously subscribed trace callback."""
        for i, (fn, kinds) in enumerate(self._subscribers):
            if fn == callback:
                del self._subscribers[i]
                if kinds is None:
                    self._firehose -= 1
                self._routes = {}
                return
        raise ValueError(f"not subscribed: {callback!r}")

    def emit(self, kind: str, subject: str, *args) -> None:
        """Deliver one trace event to every subscriber that wants it.

        ``args`` are ``(key, value)`` pairs in emitter-fixed order.  Hot
        paths guard the call (``if sim._firehose:`` at firehose sites,
        ``if sim._subscribers:`` elsewhere), so the traced-off cost is a
        single attribute check.  The :class:`TraceEvent` is built only
        when some subscriber wants ``kind``, and the one instance is
        shared by all of them (subscribers must treat events as
        immutable).
        """
        route = self._routes.get(kind)
        if route is None:
            route = self._routes[kind] = tuple(
                fn
                for fn, kinds in self._subscribers
                if kinds is None or kind in kinds
            )
        if route:
            event = TraceEvent(self.now, kind, subject, args)
            for fn in route:
                fn(event)

    # -- scheduling ------------------------------------------------------

    def _schedule(self, delay: float, callback, value=None) -> None:
        """Schedule ``callback(value)`` at ``now + delay`` (kernel use)."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._seq += 1
        heapq.heappush(
            self._heap, (self.now + delay, self._seq, callback, value)
        )

    def call_at(self, time: float, callback, value=None) -> None:
        """Schedule ``callback(value)`` at an absolute simulated time."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        self._schedule(time - self.now, callback, value)

    def timer(self, delay: float, callback, value=None) -> Timer:
        """Schedule a *cancellable* ``callback(value)`` at ``now + delay``.

        Returns the :class:`Timer` handle; ``handle.cancel()`` disarms
        it, and a cancelled entry is dropped from the heap without
        advancing :attr:`now` when its turn comes."""
        handle = Timer(callback, self)
        self._schedule(delay, handle, value)
        return handle

    def spawn(self, gen: Generator, name: str = "", daemon: bool = False) -> Process:
        """Create a :class:`Process` from a generator and start it at the
        current simulated time.  Daemon processes are excluded from the
        deadlock check (they are expected to wait forever)."""
        proc = Process(self, gen, name=name, daemon=daemon)
        self._live.add(proc)
        if self._subscribers:
            self.emit("process.spawn", proc.name, ("daemon", daemon))
        self._schedule(0.0, proc._resume, None)
        return proc

    # -- the heap --------------------------------------------------------
    #
    # All cancelled-timer handling funnels through _peek_live/_pop_live,
    # so run()/step()/peek() cannot drift apart in how they treat
    # tombstones (they used to be three hand-copied drain loops).

    def _peek_live(self):
        """Head entry of the heap, dropping cancelled-timer tombstones.

        Mutates the heap (tombstones at the head are discarded) but never
        removes a live entry."""
        heap = self._heap
        while heap:
            head = heap[0]
            callback = head[2]
            if type(callback) is Timer and callback.cancelled:
                heapq.heappop(heap)
                self._tombstones -= 1
                continue
            return head
        return None

    def _pop_live(self):
        """Pop the next live ``(time, seq, callback, value)`` entry, or
        None when the heap holds nothing but tombstones."""
        head = self._peek_live()
        if head is None:
            return None
        heapq.heappop(self._heap)
        return head

    def _maybe_compact(self) -> None:
        """Drop cancelled-timer tombstones wholesale once they exceed
        :attr:`COMPACT_FRACTION` of the heap.

        Event order is unchanged: surviving entries keep their
        ``(time, seq)`` keys, and ``heapify`` restores the invariant.
        The heap list is rebuilt *in place* so aliases held by a running
        :meth:`run` loop stay valid.
        """
        tombstones = self._tombstones
        heap = self._heap
        if (
            tombstones < self.COMPACT_MIN_TOMBSTONES
            or tombstones < len(heap) * self.COMPACT_FRACTION
        ):
            return
        heap[:] = [
            entry
            for entry in heap
            if not (type(entry[2]) is Timer and entry[2].cancelled)
        ]
        heapq.heapify(heap)
        self._tombstones = 0
        self.compactions += 1

    def _raise_if_stuck(self) -> None:
        """Diagnose and raise when live non-daemon processes can never
        be woken (the event queue has fully drained)."""
        stuck = [p for p in self._live if not p.daemon]
        if stuck:
            from repro.des.deadlock import diagnose

            waits, cycle = diagnose(stuck)
            raise SimulationDeadlock(waits, cycle=cycle)

    # -- running ---------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains or simulated time reaches
        ``until``.  Returns the final simulated time.

        Raises :class:`SimulationDeadlock` if live non-daemon processes
        remain when the queue drains, since that always indicates a lost
        wakeup (e.g. a barrier that can never trip) — **including** when
        an ``until`` bound was given: once the heap is empty nothing can
        ever wake a blocked process, so a bounded run that drained early
        has deadlocked just the same, and returning silently would mask
        exactly the bugs :mod:`repro.des.deadlock` diagnoses.
        """
        # the tombstone drain is inlined from _pop_live — this loop runs
        # once per simulated event and the two extra call frames were
        # measurable; the logic must stay in lockstep with _peek_live
        heap = self._heap
        heappop = heapq.heappop
        count = 0
        try:
            if until is None:
                while heap:
                    entry = heap[0]
                    callback = entry[2]
                    if type(callback) is Timer and callback.cancelled:
                        heappop(heap)
                        self._tombstones -= 1
                        continue
                    heappop(heap)
                    self.now = entry[0]
                    count += 1
                    callback(entry[3])
            else:
                while heap:
                    entry = heap[0]
                    callback = entry[2]
                    if type(callback) is Timer and callback.cancelled:
                        heappop(heap)
                        self._tombstones -= 1
                        continue
                    if entry[0] > until:
                        # not due yet: left on the heap untouched
                        self.now = until
                        return self.now
                    heappop(heap)
                    self.now = entry[0]
                    count += 1
                    callback(entry[3])
        finally:
            self.event_count += count
        self._raise_if_stuck()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def step(self) -> bool:
        """Process a single event; returns False when the queue is empty.

        Cancelled timers are drained silently (they advance nothing)."""
        entry = self._pop_live()
        if entry is None:
            return False
        self.now = entry[0]
        self.event_count += 1
        entry[2](entry[3])
        return True

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None.

        Pure with respect to simulated state, but *not* with respect to
        the heap: cancelled-timer tombstones at the head are discarded
        as a side effect (observable only through ``len(sim._heap)``).
        No live entry is ever removed, and :attr:`now` never changes.
        """
        head = self._peek_live()
        return head[0] if head is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Simulator(now={self.now:.6g}, pending={len(self._heap)}, "
            f"live={len(self._live)})"
        )
