"""Simulated-time synchronization: the countdown latch.

DES counterpart of :mod:`repro.concurrent.sync`, used by SimThreads.
The latch records its arrival times because the paper's load-balance
analysis (§IV) is entirely about *when threads finish a phase*: a trip
where one thread arrives late is load imbalance; equal per-phase totals
can still hide per-iteration skew.
"""

from __future__ import annotations

from typing import List, Optional

from repro.des import Event


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
