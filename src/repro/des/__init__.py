"""Deterministic discrete-event simulation (DES) kernel.

This is the foundation of the simulated multicore machine
(:mod:`repro.machine`).  It is a small, dependency-free, simpy-style
kernel: *processes* are Python generators that ``yield`` request objects
(timeouts, event waits, lock acquisitions) and are resumed by the
:class:`~repro.des.simulator.Simulator` when the request completes.

The kernel is strictly deterministic: simultaneous events are ordered by
a monotonically increasing sequence number, so a simulation with the
same inputs always produces the same trace.

Example
-------
>>> from repro.des import Simulator, Timeout
>>> sim = Simulator()
>>> log = []
>>> def worker(name, delay):
...     yield Timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.spawn(worker("a", 2.0))
>>> _ = sim.spawn(worker("b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from repro.des.deadlock import diagnose, find_cycle, wait_for_edges
from repro.des.errors import (
    DeadlockError,
    DesError,
    Interrupted,
    SimulationDeadlock,
    SyncTimeout,
)
from repro.des.events import Event, Timeout
from repro.des.process import Process
from repro.des.resources import FifoStore, Lock, Semaphore
from repro.des.simulator import Simulator, Timer
from repro.des.trace import TraceEvent, serialize_events

__all__ = [
    "DeadlockError",
    "DesError",
    "Event",
    "FifoStore",
    "Interrupted",
    "Lock",
    "Process",
    "Semaphore",
    "SimulationDeadlock",
    "Simulator",
    "SyncTimeout",
    "Timeout",
    "Timer",
    "TraceEvent",
    "diagnose",
    "find_cycle",
    "serialize_events",
    "wait_for_edges",
]
