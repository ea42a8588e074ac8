"""Real-thread parallel MD engine (correctness backend).

Reproduces the §II-B execution pattern on actual Python threads: a
fixed-size :class:`~repro.concurrent.ExecutorService`, a 1/N block
partition of atoms, privatized per-thread force arrays, a reduction
phase, and a countdown latch closing every phase.  Because each thread
writes only its own partition slices / private buffer, the step is
race-free; pytest verifies the trajectory matches the serial engine to
floating-point reassociation tolerance.

(The GIL means this backend cannot *speed up* — the repro brief's
documented substitution.  Timing happens in
:class:`repro.core.simulate.SimulatedParallelRun`.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.concurrent import (
    CountDownLatch,
    ExecutorService,
    QueueMode,
)
from repro.core.partition import block_partition
from repro.md.boundary import Boundary, ReflectiveBox
from repro.md.engine import StepReport
from repro.md.forces.base import Force, ForceResult
from repro.md.integrator import TaylorPredictorCorrector
from repro.md.neighbors import NeighborList
from repro.md.system import AtomSystem
from repro.md.thermostat import BerendsenThermostat


class ParallelMDEngine:
    """Multithreaded Molecular Workbench engine.

    Parameters mirror :class:`~repro.md.engine.MDEngine`, plus:

    n_threads:
        Pool size ("typically, one thread is created per core").
    queue_mode:
        Single shared work queue (default) or one per thread.
    """

    def __init__(
        self,
        system: AtomSystem,
        forces: Sequence[Force],
        n_threads: int,
        boundary: Optional[Boundary] = None,
        dt_fs: float = 2.0,
        neighbor_cutoff: Optional[float] = None,
        skin: float = 0.8,
        queue_mode: QueueMode = QueueMode.SINGLE,
        thermostat: Optional[BerendsenThermostat] = None,
    ):
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1: {n_threads}")
        self.system = system
        self.n_threads = n_threads
        self.boundary = boundary or ReflectiveBox(system.box)
        self.integrator = TaylorPredictorCorrector(dt_fs)
        self.thermostat = thermostat
        self._needs_nlist = any(f.uses_neighbor_list() for f in forces)
        if neighbor_cutoff is None:
            sig_max = float(system.sigma.max()) if system.n_atoms else 3.0
            neighbor_cutoff = 2.5 * sig_max
        self.neighbors = NeighborList(neighbor_cutoff, skin=skin)
        self.ranges = block_partition(system.n_atoms, n_threads)
        #: forces[t] = the force set restricted to thread t's owned terms
        self.thread_forces: List[List[Force]] = [
            [f.restrict(lo, hi) for f in forces]
            for lo, hi in self.ranges
        ]
        self._full_forces = list(forces)
        # privatized force arrays — one copy per thread (phase 5 reduces)
        self.private_forces = np.zeros((n_threads, system.n_atoms, 3))
        self.pool = ExecutorService(
            n_threads, queue_mode, name="mw-pool"
        )
        self.step_count = 0
        self._primed = False

    # -- phase helpers ---------------------------------------------------------

    def _run_phase(self, fns) -> None:
        """Submit one task per thread and wait on the countdown latch."""
        latch = CountDownLatch(len(fns))
        errors: List[BaseException] = []

        def wrap(fn):
            def task():
                try:
                    fn()
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                finally:
                    latch.count_down()

            return task

        for i, fn in enumerate(fns):
            self.pool.submit(wrap(fn), worker=i)
        latch.await_()
        if errors:
            raise errors[0]

    def _phase_predict(self) -> None:
        def task(lo, hi):
            return lambda: self.integrator.predict(self.system, lo, hi)

        self._run_phase([task(lo, hi) for lo, hi in self.ranges])
        self.boundary.apply(self.system.positions, self.system.velocities)

    def _phase_forces(self) -> Dict[str, ForceResult]:
        results: List[Optional[List[ForceResult]]] = [None] * self.n_threads

        def task(t, lo, hi):
            def run():
                buf = self.private_forces[t]
                buf[:] = 0.0
                out = []
                for force in self.thread_forces[t]:
                    out.append(
                        force.compute(
                            self.system,
                            self.boundary,
                            self.neighbors if self._needs_nlist else None,
                            buf,
                        )
                    )
                results[t] = out

            return run

        self._run_phase(
            [task(t, lo, hi) for t, (lo, hi) in enumerate(self.ranges)]
        )
        # merge per-thread results per force (for the step report)
        merged: Dict[str, ForceResult] = {}
        n = self.system.n_atoms
        for t in range(self.n_threads):
            for force, res in zip(self.thread_forces[t], results[t]):
                agg = merged.get(force.name)
                if agg is None:
                    merged[force.name] = ForceResult(
                        res.energy,
                        res.terms,
                        res.per_atom_work.copy(),
                        res.flops,
                        res.bytes_irregular,
                        res.bytes_regular,
                    )
                else:
                    agg.energy += res.energy
                    agg.terms += res.terms
                    agg.per_atom_work += res.per_atom_work
                    agg.flops += res.flops
                    agg.bytes_irregular += res.bytes_irregular
                    agg.bytes_regular += res.bytes_regular
        return merged

    def _phase_reduce(self) -> None:
        def task(lo, hi):
            def run():
                self.system.forces[lo:hi] = self.private_forces[
                    :, lo:hi, :
                ].sum(axis=0)

            return run

        self._run_phase([task(lo, hi) for lo, hi in self.ranges])

    def _phase_correct(self) -> None:
        def task(lo, hi):
            return lambda: self.integrator.correct(self.system, lo, hi)

        self._run_phase([task(lo, hi) for lo, hi in self.ranges])
        if self.thermostat is not None:
            self.thermostat.apply(self.system, self.integrator.dt)

    def _rebuild_if_stale(self) -> bool:
        """Phases 2+3: rebuild the list if any atom moved past the
        skin; returns True if it did."""
        stale = self.neighbors.needs_rebuild(self.system.positions)
        if stale:
            self.neighbors.build(self.system.positions, self.boundary)
        return stale

    # -- public API --------------------------------------------------------------

    def prime(self) -> None:
        """Evaluate initial forces/accelerations once (idempotent)."""
        if self._primed:
            return
        if self._needs_nlist:
            self._rebuild_if_stale()
        self._phase_forces()
        self._phase_reduce()
        self.integrator.prime(self.system)
        self._primed = True

    def step(self) -> StepReport:
        """One six-phase timestep across the thread pool."""
        self.prime()
        self._phase_predict()
        rebuilt = False
        if self._needs_nlist:
            rebuilt = self._rebuild_if_stale()
        merged = self._phase_forces()
        self._phase_reduce()
        self._phase_correct()
        self.step_count += 1
        potential = sum(r.energy for r in merged.values())
        return StepReport(
            step=self.step_count,
            rebuilt=rebuilt,
            potential_energy=potential,
            kinetic_energy=self.system.kinetic_energy(),
            force_results=merged,
        )

    def run(self, n_steps: int) -> List[StepReport]:
        """Advance ``n_steps`` timesteps; returns their reports."""
        return [self.step() for _ in range(n_steps)]

    def shutdown(self) -> None:
        """Stop the worker pool (also via the context manager)."""
        self.pool.shutdown()

    def __enter__(self) -> "ParallelMDEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
