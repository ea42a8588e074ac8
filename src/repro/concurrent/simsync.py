"""Simulated-time synchronization primitives.

DES counterparts of :mod:`repro.concurrent.sync`, used by SimThreads.
Both primitives record arrival statistics because the paper's load-
balance analysis (§IV) is entirely about *when threads reach the
barrier*: a barrier trip where one thread arrives late is load
imbalance; equal per-phase totals can still hide per-iteration skew.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.des import Event
from repro.des.errors import DesError, SyncTimeout


class _TimedEventWait:
    """Waitable: resolves True when ``event`` fires, False at timeout.

    The losing branch is disarmed via a shared flag, so the waiting
    process is resumed exactly once; a dead (interrupted) process is
    never resumed at all.
    """

    __slots__ = ("event", "timeout")

    def __init__(self, event: Event, timeout: float):
        if timeout < 0:
            raise ValueError(f"negative timeout: {timeout}")
        self.event = event
        self.timeout = timeout

    def _subscribe(self, sim, process) -> None:
        if self.event.fired:
            if self.event._failed:
                sim._schedule(0.0, process._fail, self.event._value)
            else:
                sim._schedule(0.0, process._resume, True)
            return
        state = {"done": False}

        def on_fire(_value):
            state["timer"].cancel()
            if not state["done"] and process.alive:
                state["done"] = True
                process._resume(True)

        def on_fail(exc):
            state["timer"].cancel()
            if not state["done"] and process.alive:
                state["done"] = True
                process._fail(exc)

        def on_timeout(_value):
            if not state["done"] and process.alive:
                state["done"] = True
                process._resume(False)

        self.event._waiters.append(_Waiter(on_fire, on_fail))
        state["timer"] = sim.timer(self.timeout, on_timeout)


class _Waiter:
    """Callback adapter compatible with an Event's waiter list."""

    __slots__ = ("_resume", "_fail")

    def __init__(self, resume, fail):
        self._resume = resume
        self._fail = fail


class SimCountDownLatch:
    """One-shot latch in simulated time.

    ``yield latch`` (the latch itself is waitable) suspends the thread
    until ``count_down()`` has been called ``count`` times.  For a
    bounded wait — the hardened master uses this to detect stalled
    phases under fault injection — ``yield latch.wait(timeout=t)``
    resolves to ``True`` when the latch trips and ``False`` when ``t``
    simulated seconds pass first (the latch itself is untouched; wait
    again after recovery).
    """

    def __init__(self, sim, count: int, name: str = "latch"):
        if count < 0:
            raise ValueError(f"negative latch count: {count}")
        self.sim = sim
        self.name = name
        self._count = count
        self._event = Event(name=name)
        if count == 0:
            self._event.fire(sim=sim)
        #: simulated times at which count_down() was called
        self.arrival_times: List[float] = []

    @property
    def count(self) -> int:
        return self._count

    @property
    def tripped(self) -> bool:
        return self._event.fired

    def wait(self, timeout: Optional[float] = None):
        """Waitable for the latch trip.

        Without a timeout this is the latch itself (resolves when the
        count reaches zero).  With a timeout the yield resolves to
        ``True`` on trip and ``False`` when the timeout expires first.
        """
        if timeout is None:
            return self
        return _TimedEventWait(self._event, timeout)

    def count_down(self) -> None:
        """Decrement; at zero all waiters resume (one-shot)."""
        if self._count > 0:
            self._count -= 1
            self.arrival_times.append(self.sim.now)
            if self.sim._firehose:
                self.sim.emit(
                    "latch.count_down", self.name,
                    ("remaining", self._count),
                )
            if self._count == 0:
                if self.sim._subscribers:
                    self.sim.emit("latch.trip", self.name, ("skew", self.skew))
                self._event.fire(self.sim.now, sim=self.sim)

    @property
    def skew(self) -> float:
        """Seconds between first and last count_down so far."""
        if len(self.arrival_times) < 2:
            return 0.0
        return max(self.arrival_times) - min(self.arrival_times)

    def _subscribe(self, sim, process) -> None:
        self._event._subscribe(sim, process)


class SimCyclicBarrier:
    """Reusable barrier in simulated time.

    Threads ``yield barrier.arrive()``.  When the last party arrives the
    optional ``action`` callable runs (zero simulated cost — model any
    cost as a burst in the arriving thread) and all parties resume.

    Every trip's arrival times are recorded in :attr:`trip_arrivals`,
    giving the exact per-iteration skew that §IV-B shows sampling tools
    cannot see.
    """

    def __init__(
        self,
        sim,
        parties: int,
        name: str = "barrier",
        action: Optional[Callable[[], None]] = None,
    ):
        if parties < 1:
            raise ValueError(f"parties must be >= 1: {parties}")
        self.sim = sim
        self.parties = parties
        self.name = name
        self._action = action
        self._waiting = 0
        self._gen_event = Event(name=f"{name}#0")
        self._generation = 0
        self._current_arrivals: List[float] = []
        #: list per trip of (first_arrival, last_arrival, [arrival times])
        self.trip_arrivals: List[Tuple[float, float, List[float]]] = []

    @property
    def trips(self) -> int:
        return len(self.trip_arrivals)

    @property
    def waiting(self) -> int:
        return self._waiting

    def arrive(self, timeout: Optional[float] = None) -> "_BarrierArrival":
        """Request to ``yield``: suspends until every party arrives.

        With ``timeout``, a party left waiting that long withdraws its
        arrival and gets :class:`~repro.des.errors.SyncTimeout` raised
        at the yield — the barrier stays usable for the remaining
        parties (the withdrawn arrival is un-counted).
        """
        if timeout is not None and timeout < 0:
            raise ValueError(f"negative timeout: {timeout}")
        return _BarrierArrival(self, timeout)

    def skew_per_trip(self) -> List[float]:
        """Last-minus-first arrival time for every completed trip."""
        return [last - first for first, last, _ in self.trip_arrivals]

    def _on_arrive(self, sim, process, timeout: Optional[float] = None) -> None:
        self._waiting += 1
        self._current_arrivals.append(sim.now)
        if self._waiting > self.parties:
            raise DesError(
                f"barrier {self.name!r}: more arrivals than parties"
            )
        if sim._subscribers:
            sim.emit(
                "barrier.arrive", self.name,
                ("process", process.name), ("waiting", self._waiting),
            )
        if self._waiting == self.parties:
            arrivals = self._current_arrivals
            self.trip_arrivals.append(
                (min(arrivals), max(arrivals), list(arrivals))
            )
            if sim._subscribers:
                sim.emit(
                    "barrier.trip", self.name,
                    ("trip", len(self.trip_arrivals) - 1),
                    ("skew", max(arrivals) - min(arrivals)),
                )
            if self._action is not None:
                self._action()
            event = self._gen_event
            self._waiting = 0
            self._current_arrivals = []
            self._generation += 1
            self._gen_event = Event(name=f"{self.name}#{self._generation}")
            # resume the last arriver too (it also waited, trivially)
            event._waiters.append(process)
            event.fire(sim.now, sim=sim)
        elif timeout is None:
            self._gen_event._waiters.append(process)
        else:
            arrived_at = sim.now
            state = {}

            def on_trip(value):
                state["timer"].cancel()
                process._resume(value)

            def on_trip_fail(exc):
                state["timer"].cancel()
                process._fail(exc)

            waiter = _Waiter(on_trip, on_trip_fail)
            self._gen_event._waiters.append(waiter)

            def expire(_value):
                # the timer is cancelled on trip, so reaching here means
                # the barrier has not tripped: withdraw the arrival
                if not process.alive:
                    return
                self._gen_event._waiters.remove(waiter)
                self._waiting -= 1
                self._current_arrivals.remove(arrived_at)
                if sim._subscribers:
                    sim.emit(
                        "barrier.timeout", self.name,
                        ("process", process.name),
                        ("timeout", timeout),
                    )
                process._fail(
                    SyncTimeout(f"barrier {self.name!r}", timeout)
                )

            state["timer"] = sim.timer(timeout, expire)


class _BarrierArrival:
    __slots__ = ("barrier", "timeout")

    def __init__(
        self, barrier: SimCyclicBarrier, timeout: Optional[float] = None
    ):
        self.barrier = barrier
        self.timeout = timeout

    def _subscribe(self, sim, process) -> None:
        self.barrier._on_arrive(sim, process, self.timeout)
