"""Speedup sweeps — the Fig. 1 and Table III drivers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.concurrent import QueueMode
from repro.core.costmodel import CostParams
from repro.core.simulate import (
    RunResult,
    SimulatedParallelRun,
    capture_trace,
    trace_atoms,
)
from repro.machine.background import inject_background_load, inject_mobile_load
from repro.machine.machine import SimMachine
from repro.machine.topology import (
    CORE_I7_920,
    MACHINES,
    MachineSpec,
    Topology,
)
from repro.targets import TABLE3_MACHINE, TABLE3_SEED, table3_configs


def replay(
    trace,
    n_atoms: int,
    spec: MachineSpec,
    n_threads: int,
    *,
    seed: int = 2,
    name: str = "wl",
    **kwargs,
) -> RunResult:
    """One simulated run on a fresh machine."""
    machine = SimMachine(spec, seed=seed)
    run = SimulatedParallelRun(
        trace, n_atoms, machine, n_threads, name=name, **kwargs
    )
    return run.run()


@dataclass
class SpeedupCurve:
    """Speedup vs thread count for one workload."""

    workload: str
    threads: List[int]
    seconds: List[float]

    @property
    def speedups(self) -> List[float]:
        base = self.seconds[0]
        return [base / s for s in self.seconds]

    def speedup_at(self, n: int) -> float:
        """Speedup at a specific thread count."""
        return self.speedups[self.threads.index(n)]

    def monotone_nondecreasing(self, slack: float = 0.08) -> bool:
        """Speedup should not regress much as cores are added."""
        s = self.speedups
        return all(b >= a * (1.0 - slack) for a, b in zip(s, s[1:]))


def fig1_sweep(
    workloads,
    spec: MachineSpec = CORE_I7_920,
    threads: Sequence[int] = (1, 2, 3, 4),
    steps: int = 25,
    *,
    seed: int = 2,
    params: Optional[CostParams] = None,
    queue_mode: QueueMode = QueueMode.SINGLE,
) -> Dict[str, SpeedupCurve]:
    """Reproduce Fig. 1: speedup of each workload over thread counts.

    Physics runs once per workload (:func:`capture_trace`); each thread
    count is a timing replay on a fresh simulated machine.
    """
    curves: Dict[str, SpeedupCurve] = {}
    kwargs = {}
    if params is not None:
        kwargs["params"] = params
    for wl in workloads:
        trace = capture_trace(wl, steps)
        seconds = []
        for n in threads:
            res = replay(
                trace,
                wl.system.n_atoms,
                spec,
                n,
                seed=seed,
                name=wl.name,
                queue_mode=queue_mode,
                **kwargs,
            )
            seconds.append(res.sim_seconds)
        curves[wl.name] = SpeedupCurve(
            workload=wl.name, threads=list(threads), seconds=seconds
        )
    return curves


def table3_sweep(trace, *, seed: int = TABLE3_SEED) -> Dict[str, float]:
    """Reproduce Table III: ``{row label: simulated seconds}``.

    Each paper configuration replays ``trace`` on a fresh 4 x Xeon X7560
    under the same background load (a few loaded PUs plus unpinned
    service tasks), one single-thread pool per worker as in §V-B;
    pinned rows bind worker i to the mask's i-th PU.
    """
    spec = MACHINES[TABLE3_MACHINE]
    n_atoms = trace_atoms(trace)
    seconds: Dict[str, float] = {}
    for label, n_threads, mask in table3_configs(Topology(spec)):
        machine = SimMachine(spec, seed=seed)
        inject_background_load(
            machine, [0, 2, 4, 16], utilization=0.45, duration=10.0
        )
        inject_mobile_load(machine, 8, utilization=0.3, duration=10.0)
        affinities = None
        if mask is not None:
            pus = sorted(mask)
            affinities = [[pus[i % len(pus)]] for i in range(n_threads)]
        seconds[label] = SimulatedParallelRun(
            trace, n_atoms, machine, n_threads,
            affinities=affinities, queue_mode=QueueMode.PER_THREAD,
            name="al", repeat=2,
        ).run().sim_seconds
    return seconds
