"""Process: a generator-driven simulated thread of control."""

from __future__ import annotations

from typing import Generator

from repro.des.errors import DesError, Interrupted
from repro.des.events import Event


class Process:
    """Wraps a generator and steps it through the simulation.

    Created via :meth:`Simulator.spawn`.  The generator yields request
    objects (see :mod:`repro.des.events` and :mod:`repro.des.resources`);
    each ``yield`` suspends the process until the request completes, and
    the request's value becomes the result of the yield expression.

    A Process is itself waitable: yielding a process from another process
    suspends the waiter until the target terminates, returning the
    target's return value (``StopIteration.value``).
    """

    __slots__ = (
        "sim",
        "name",
        "daemon",
        "_gen",
        "_send",
        "terminated",
        "_alive",
        "_waiting_on",
    )

    def __init__(self, sim, gen: Generator, name: str = "", daemon: bool = False):
        if not hasattr(gen, "send"):
            raise TypeError(
                f"process body must be a generator, got {type(gen).__name__}"
            )
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        #: daemon processes may outlive the simulation (excluded from the
        #: deadlock check), like dispatcher loops waiting for work forever
        self.daemon = daemon
        self._gen = gen
        self._send = gen.send  # bound once; _resume runs per event
        #: fires with the generator's return value when it finishes
        self.terminated = Event(name=f"{self.name}.terminated")
        self._alive = True
        self._waiting_on = None

    @property
    def alive(self) -> bool:
        """True until the generator returns or raises."""
        return self._alive

    # -- kernel-facing -------------------------------------------------

    def _resume(self, value=None) -> None:
        if not self._alive:  # e.g. resumed after an interrupt killed us
            return
        self._waiting_on = None
        sim = self.sim
        if sim._firehose:
            sim.emit("process.resume", self.name)
        try:
            request = self._send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:
            self._crash(exc)
            raise
        self._dispatch(request)

    def _fail(self, exc: BaseException) -> None:
        """Raise ``exc`` inside the generator at its current yield point."""
        if not self._alive:
            return
        self._waiting_on = None
        try:
            request = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as raised:
            if raised is exc:
                # Unhandled: the process dies with this exception.
                self._crash(raised)
                raise
            self._crash(raised)
            raise
        self._dispatch(request)

    def _dispatch(self, request) -> None:
        self._waiting_on = request
        try:
            subscribe = request._subscribe
        except AttributeError:
            raise DesError(
                f"process {self.name!r} yielded non-request "
                f"{type(request).__name__}: {request!r}"
            ) from None
        # membership in sim._live is managed at spawn/_finish/_crash;
        # re-adding on every yield was pure hot-loop overhead
        sim = self.sim
        if sim._firehose:
            sim.emit(
                "process.block", self.name,
                ("request", type(request).__name__),
            )
        subscribe(sim, self)

    def _finish(self, value) -> None:
        self._alive = False
        self.sim._live.discard(self)
        if self.sim._subscribers:
            self.sim.emit("process.end", self.name)
        self.terminated.fire(value, sim=self.sim)

    def _crash(self, exc: BaseException) -> None:
        self._alive = False
        self.sim._live.discard(self)
        if self.sim._subscribers:
            self.sim.emit(
                "process.end", self.name, ("error", type(exc).__name__)
            )
        if self.terminated._waiters:
            self.terminated.fail(exc, sim=self.sim)
        else:
            self.terminated._fired = True
            self.terminated._failed = True
            self.terminated._value = exc

    # -- user-facing ---------------------------------------------------

    def interrupt(self, cause=None) -> None:
        """Throw :class:`Interrupted` into the process at its yield point.

        A process blocked on a request simply abandons it; requests that
        hold queue slots (locks) tolerate dead waiters.
        """
        if not self._alive:
            return
        self.sim._schedule(0.0, self._fail, Interrupted(cause))

    # Make a process waitable (join): yielding it waits for terminated.
    def _subscribe(self, sim, process) -> None:
        self.terminated._subscribe(sim, process)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self._alive else "dead"
        return f"Process({self.name!r}, {state})"
