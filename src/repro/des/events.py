"""Waitable request objects for DES processes.

A process communicates with the kernel by ``yield``-ing *requests*.
Every request implements the informal protocol

``_subscribe(sim, process)``
    Called by the kernel when the request is yielded.  The request must
    arrange for ``process._resume(value)`` (or ``process._fail(exc)``) to
    be called exactly once, now or in the simulated future.

The concrete requests defined here are:

:class:`Timeout`
    Resume after a fixed simulated delay.
:class:`Event`
    A one-shot broadcast signal; every waiter resumes when it fires.
"""

from __future__ import annotations

from repro.des.errors import DesError


class Timeout:
    """Resume the yielding process after ``delay`` units of simulated time.

    The optional ``value`` is returned from the ``yield`` expression.
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value=None):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = float(delay)
        self.value = value

    def _subscribe(self, sim, process) -> None:
        if sim._firehose:
            sim.emit("timeout", process.name, ("delay", self.delay))
        sim._schedule(self.delay, process._resume, self.value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay})"


class Event:
    """A one-shot signal.

    Processes wait on an event by yielding it.  :meth:`fire` releases every
    current and future waiter with the fired value; :meth:`fail` releases
    them by raising the given exception inside their generator.  Firing an
    already-fired event is an error (one-shot semantics); use a fresh Event
    per round for cyclic constructs.
    """

    __slots__ = ("name", "_fired", "_failed", "_value", "_waiters")

    def __init__(self, name: str = ""):
        self.name = name
        self._fired = False
        self._failed = False
        self._value = None
        self._waiters: list = []

    @property
    def fired(self) -> bool:
        """True once :meth:`fire` or :meth:`fail` has been called."""
        return self._fired

    @property
    def value(self):
        """The value passed to :meth:`fire` (None until fired)."""
        return self._value

    def fire(self, value=None, *, sim=None) -> None:
        """Mark the event fired and resume all waiters.

        If ``sim`` is given the resumptions are scheduled at the current
        simulated time (deterministic FIFO order); otherwise waiters are
        resumed synchronously, which is only safe from kernel callbacks.
        """
        if self._fired:
            raise DesError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            if sim is not None:
                sim._schedule(0.0, proc._resume, value)
            else:
                proc._resume(value)

    def fail(self, exc: BaseException, *, sim=None) -> None:
        """Mark the event failed; waiters get ``exc`` raised at the yield."""
        if self._fired:
            raise DesError(f"event {self.name!r} fired twice")
        self._fired = True
        self._failed = True
        self._value = exc
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            if sim is not None:
                sim._schedule(0.0, proc._fail, exc)
            else:
                proc._fail(exc)

    def _subscribe(self, sim, process) -> None:
        if self._fired:
            if self._failed:
                sim._schedule(0.0, process._fail, self._value)
            else:
                sim._schedule(0.0, process._resume, self._value)
        else:
            self._waiters.append(process)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self._fired else f"{len(self._waiters)} waiters"
        return f"Event({self.name!r}, {state})"
