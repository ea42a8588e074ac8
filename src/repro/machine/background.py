"""Background system load for the simulated machine.

Table III's low-core-count rows show OS scheduling *beating* pinning:
"with low core counts, more flexibility regarding on which core to
assign a thread results in better performance, as the OS can avoid
cores loaded with other tasks."  For that to be reproducible the
machine needs other tasks.  This module injects daemon-style background
threads — periodic CPU bursts pinned to specific PUs (system services,
GUI compositor, kernel threads) — so an OS-scheduled workload can route
around them while a pinned workload sharing those PUs must timeshare.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.des import Timeout
from repro.machine.cost import WorkCost
from repro.machine.machine import SimMachine, SimThread


def daemon_body(
    machine: SimMachine,
    busy_seconds: float,
    idle_seconds: float,
    duration: Optional[float] = None,
    stop_with_workload: bool = True,
):
    """Generator body: burst/sleep until ``duration`` (forever if
    None) or, with ``stop_with_workload``, until the machine's workload
    has finished (:attr:`SimMachine.workload_finished`): load that
    outlives the run under study only costs host time."""
    cycles = busy_seconds * machine.spec.freq_hz
    while True:
        if duration is not None and machine.now >= duration:
            return
        if stop_with_workload and machine.workload_finished:
            return
        yield WorkCost(cycles=cycles, label="background")
        yield Timeout(idle_seconds)


def inject_background_load(
    machine: SimMachine,
    pus: Iterable[int],
    *,
    utilization: float = 0.25,
    period: float = 0.004,
    duration: Optional[float] = None,
    name_prefix: str = "daemon",
    stop_with_workload: bool = True,
) -> List[SimThread]:
    """Pin one periodic background task to each PU in ``pus``.

    Each task is busy ``utilization`` of every ``period`` seconds, and
    ends as :func:`daemon_body` says.  Returns the created threads.
    """
    if not 0.0 < utilization < 1.0:
        raise ValueError(f"utilization must be in (0,1): {utilization}")
    busy = period * utilization
    idle = period - busy
    threads = []
    for pu in pus:
        body = daemon_body(machine, busy, idle, duration, stop_with_workload)
        threads.append(
            machine.thread(body, f"{name_prefix}{pu}", affinity=[pu])
        )
    return threads


def inject_mobile_load(
    machine: SimMachine,
    n_tasks: int,
    *,
    utilization: float = 0.3,
    period: float = 0.004,
    duration: Optional[float] = None,
    name_prefix: str = "svc",
) -> List[SimThread]:
    """OS-scheduled background services (no affinity): they drift away
    from busy cores, but their wakeups keep perturbing placement — the
    "cores loaded with other tasks" of Table III."""
    if not 0.0 < utilization < 1.0:
        raise ValueError(f"utilization must be in (0,1): {utilization}")
    busy = period * utilization
    idle = period - busy
    threads = []
    for i in range(n_tasks):
        body = daemon_body(machine, busy, idle, duration)
        threads.append(machine.thread(body, f"{name_prefix}{i}"))
    return threads


def table3_load(machine: SimMachine) -> None:
    """Table III's background: pinned daemons on PUs 0, 2, 4 and 16 plus
    eight unpinned services, for the first 10 simulated seconds or until
    the replay finishes."""
    inject_background_load(
        machine, [0, 2, 4, 16], utilization=0.45, duration=10.0
    )
    inject_mobile_load(machine, 8, utilization=0.3, duration=10.0)


#: named background-load scenarios; an observe spec's ``load`` option
#: selects one by name
LOAD_SCENARIOS: Dict[str, Callable[[SimMachine], None]] = {
    "table3": table3_load,
}

