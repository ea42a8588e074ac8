"""Exception types raised by the DES kernel."""

from typing import Optional


class DesError(Exception):
    """Base class for all kernel errors."""


class SimulationDeadlock(DesError):
    """Raised by :meth:`Simulator.run` when live processes remain but the
    event queue is empty (every remaining process waits on something that
    can no longer happen).

    ``waiting`` lists the stuck processes, annotated with the resource
    each one waits on when known.  ``cycle`` carries the rendered
    wait-for cycle (lock owners and waiting processes) when the
    diagnosis found one — the classic two-lock deadlock reads::

        wait-for cycle: a -waits-on-> lock 'l2' -held-by-> b;
        b -waits-on-> lock 'l1' -held-by-> a
    """

    def __init__(self, waiting: list, cycle: Optional[str] = None):
        self.waiting = list(waiting)
        self.cycle = cycle
        msg = (
            "simulation deadlocked with %d waiting process(es): %s"
            % (len(self.waiting), ", ".join(self.waiting))
        )
        if cycle:
            msg += f"\nwait-for cycle: {cycle}"
        super().__init__(msg)


#: the public name the fault-injection / chaos layers use; kept as an
#: alias so both read naturally at their call sites
DeadlockError = SimulationDeadlock


class SyncTimeout(DesError):
    """A timed latch ``wait(timeout=...)``, surfaced as a failure,
    expired before the latch tripped."""

    def __init__(self, what: str, timeout: float):
        self.what = what
        self.timeout = timeout
        super().__init__(f"{what} not released within {timeout!r} s")


class Interrupted(DesError):
    """Thrown *into* a process generator when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause=None):
        self.cause = cause
        super().__init__(f"interrupted: {cause!r}")
