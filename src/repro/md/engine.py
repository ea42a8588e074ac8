"""MD engine: the six-phase timestep of §II-A, for one run or many.

    1. run the predictor for each atom
    2. check whether the neighbor list is still valid
    3. if invalid, repopulate the linked cells and build the
       neighbor lists
    4. calculate the forces on each atom from each relevant type of
       interaction
    5. perform a reduction across all copies of the privatized force
       array (trivial in this engine)
    6. run the corrector for each atom

Each step also fills a :class:`StepReport` per run with the
phase-by-phase *work counts* the parallel layer's cost model consumes.

One engine advances ``R`` independent runs of one system in lockstep.
``MDEngine(system, forces, ...)`` is one run; :meth:`MDEngine.lockstep`
joins fresh one-run engines that differ only in kinematic state (the
seeds of one workload) into one.  Every phase runs once per step for
all runs:

* predict, boundary and correct act on ``(R, N, 3)`` stacks whose rows
  are the runs' own :class:`AtomSystem` arrays, so every system always
  holds its live state;
* each run keeps its Verlet list (rebuild cadence is per run); the runs
  due a rebuild rebuild together in one stacked linked-cell pass
  (:func:`~repro.md.neighbors.build_lists`), and the lists are spliced
  with run offsets into one pair list;
* each force kernel evaluates every run's terms in one call on the
  run-major ``(R·N, 3)`` view and returns per-run columns
  (:meth:`Force.compute_runs`), which are summed across kernels with
  numpy;
* one pass then builds each run's :class:`ForceResult` objects, work
  records and report from the columns' rows.

A run's reports pickle to exactly the bytes the same run produces
alone, which keeps the content-addressed run cache sound whatever the
batch.  Runs that cannot share one pipeline raise
:class:`EnsembleUnsupported` and run one at a time.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.md.boundary import Boundary, ReflectiveBox
from repro.md.forces.base import Force, ForceColumns, ForceResult
from repro.md.forces.bonded import (
    AngularBondForce,
    RadialBondForce,
    TorsionalBondForce,
)
from repro.md.forces.coulomb import CoulombForce
from repro.md.forces.lj import LennardJonesForce
from repro.md.integrator import TaylorPredictorCorrector
from repro.md.neighbors import NeighborList, build_lists
from repro.md.system import AtomSystem, kinetic_energies
from repro.md.thermostat import BerendsenThermostat


@dataclass
class PhaseWork:
    """Work performed by one phase of one timestep."""

    per_atom: np.ndarray
    flops: float = 0.0
    bytes_irregular: float = 0.0
    bytes_regular: float = 0.0
    terms: int = 0


@dataclass
class StepReport:
    """Everything one timestep did."""

    step: int
    rebuilt: bool
    potential_energy: float
    kinetic_energy: float
    force_results: Dict[str, ForceResult] = field(default_factory=dict)
    phase_work: Dict[str, PhaseWork] = field(default_factory=dict)
    #: per-force-kernel slice of the "forces" phase (keyed by force
    #: name: "lj" / "coulomb" / "bond"...), so speedup-loss attribution
    #: can blame individual kernels, not just the fused phase
    kernel_work: Dict[str, PhaseWork] = field(default_factory=dict)

    @property
    def total_energy(self) -> float:
        return self.potential_energy + self.kinetic_energy


#: cost constants for the rebuild phase (per candidate pair examined)
REBUILD_FLOPS_PER_CANDIDATE = 10.0
REBUILD_BYTES_PER_CANDIDATE = 32.0

_KINEMATIC = ("positions", "velocities", "accelerations", "forces")
_STATIC = ("masses", "charges", "sigma", "epsilon", "element_ids", "movable")


class EnsembleUnsupported(Exception):
    """The engines cannot share one lockstep pipeline; each must run
    on its own."""


class _RunStack:
    """The runs' kinematic state as ``(R, N, 3)`` stacks under the
    :class:`AtomSystem` names the integrator and boundary consume.
    Each run's system is rebound to its rows (a one-run stack is a view
    of the system's own arrays), so the systems stay live."""

    def __init__(self, systems: Sequence[AtomSystem]):
        for name in _KINEMATIC:
            rows = [getattr(s, name) for s in systems]
            stack = rows[0][None] if len(rows) == 1 else np.stack(rows)
            setattr(self, name, stack)
            for system, row in zip(systems, stack):
                setattr(system, name, row)
        self.masses = systems[0].masses
        self.movable = systems[0].movable

    def run_major(self, base: AtomSystem, n_runs: int) -> AtomSystem:
        """The runs as one ``(R·N)``-atom system for the force kernels:
        kinematic arrays are reshape views of the stacks (in-place
        kernel writes land in every run's state) and the static arrays
        are tiled, so run ``r`` owns atoms ``[r·N, (r+1)·N)``.  One run
        is its own system."""
        if n_runs == 1:
            return base
        flat = AtomSystem(base.box)
        for name in _KINEMATIC:
            setattr(flat, name, getattr(self, name).reshape(-1, 3))
        for name in _STATIC:
            setattr(flat, name, np.tile(getattr(base, name), n_runs))
        return flat


class _RunPairs(NeighborList):
    """The runs' Verlet lists spliced with run offsets, presented
    through the :class:`NeighborList` interface the kernels consume
    (``built`` and :meth:`pairs_within`).  Never built itself:
    :meth:`refresh` re-splices after any run's list rebuilds."""

    def refresh(self, nlists: Sequence[NeighborList], n_atoms: int):
        self.pairs_i = np.concatenate(
            [nl.pairs_i + r * n_atoms for r, nl in enumerate(nlists)]
        )
        self.pairs_j = np.concatenate(
            [nl.pairs_j + r * n_atoms for r, nl in enumerate(nlists)]
        )
        self._ref_positions = self.pairs_i  # non-None ⇒ ``built``


def _force_signature(force: Force) -> tuple:
    """Hashable configuration fingerprint of one force object; raises
    :class:`EnsembleUnsupported` for forces with no many-run form."""
    if isinstance(force, LennardJonesForce):
        if force.owner_range is not None:
            raise EnsembleUnsupported("owner-restricted LJ force")
        ex = force.exclusions
        return (
            "lj", force.cutoff_factor, force.skip_fixed_pairs,
            None if ex is None else (ex.shape, ex.tobytes()),
        )
    if isinstance(force, CoulombForce):
        if force.owner_range is not None:
            raise EnsembleUnsupported("owner-restricted Coulomb force")
        return ("coulomb", force.min_distance)
    if isinstance(
        force, (RadialBondForce, AngularBondForce, TorsionalBondForce)
    ):
        return (force.name,) + tuple(
            getattr(force, name).tobytes() for name in force._fields
        )
    raise EnsembleUnsupported(
        f"unsupported force type {type(force).__name__}"
    )


def _validate(engines: Sequence["MDEngine"]) -> None:
    """Raise :class:`EnsembleUnsupported` unless ``engines`` can share
    one lockstep pipeline."""
    if not engines:
        raise EnsembleUnsupported("empty batch")
    base = engines[0]
    n = base.system.n_atoms
    if n == 0:
        raise EnsembleUnsupported("empty system")
    for e in engines:
        if type(e.boundary) is not ReflectiveBox:
            raise EnsembleUnsupported(
                f"boundary {type(e.boundary).__name__} is not batchable"
            )
        if e.thermostat is not None:
            raise EnsembleUnsupported("thermostatted runs")
        if e.system.n_atoms != n:
            raise EnsembleUnsupported("atom counts differ across runs")
        if e.integrator.dt != base.integrator.dt:
            raise EnsembleUnsupported("timesteps differ across runs")
        if (
            e.neighbors.cutoff != base.neighbors.cutoff
            or e.neighbors.skin != base.neighbors.skin
        ):
            raise EnsembleUnsupported(
                "neighbor-list parameters differ across runs"
            )
        if e.n_runs != 1 or e.step_count or e._primed:
            raise EnsembleUnsupported("engines must be unstepped single runs")
    # one stacked comparison per array (the atom counts agree)
    mismatched = [
        name for name in _STATIC
        if not (
            np.stack([getattr(e.system, name) for e in engines])
            == getattr(base.system, name)
        ).all()
    ]
    if mismatched:
        raise EnsembleUnsupported(
            f"per-run static arrays differ: {mismatched}"
        )
    signatures = [
        tuple(_force_signature(f) for f in e.forces) for e in engines
    ]
    if any(sig != signatures[0] for sig in signatures[1:]):
        raise EnsembleUnsupported(
            "force configurations differ across runs"
        )


class MDEngine:
    """The MD engine (one run; see :meth:`lockstep` for many).

    Parameters
    ----------
    system:
        The :class:`AtomSystem` to integrate (mutated in place).
    forces:
        Force objects; evaluation order is preserved.
    boundary:
        Defaults to reflective walls over ``system.box`` (MW behaviour).
    dt_fs:
        Timestep; MW runs 1-2 fs.
    neighbor_cutoff:
        Verlet-list cutoff.  Defaults to 2.5 x the largest sigma in the
        system (so every LJ pair the force would keep is in the list).
    skin:
        Verlet skin (Å); rebuild triggers at skin/2 displacement.
    thermostat:
        Optional heat bath applied after the corrector.
    """

    def __init__(
        self,
        system: AtomSystem,
        forces: Sequence[Force],
        boundary: Optional[Boundary] = None,
        dt_fs: float = 2.0,
        neighbor_cutoff: Optional[float] = None,
        skin: float = 0.8,
        thermostat: Optional[BerendsenThermostat] = None,
    ):
        #: one system per run, in run order
        self.systems = [system]
        self.forces = list(forces)
        #: one boundary per run, in run order
        self.boundaries = [boundary or ReflectiveBox(system.box)]
        self.integrator = TaylorPredictorCorrector(dt_fs)
        self.thermostat = thermostat
        self._needs_nlist = any(f.uses_neighbor_list() for f in self.forces)
        if neighbor_cutoff is None:
            sig_max = float(system.sigma.max()) if system.n_atoms else 3.0
            neighbor_cutoff = 2.5 * sig_max
        #: one Verlet list per run, in run order
        self.nlists = [NeighborList(neighbor_cutoff, skin=skin)]
        self.step_count = 0
        self._primed = False

    @classmethod
    def lockstep(cls, engines: Sequence["MDEngine"]) -> "MDEngine":
        """One engine advancing the runs of fresh one-run ``engines``
        together; run ``r`` keeps ``engines[r]``'s system and Verlet
        list.  Raises :class:`EnsembleUnsupported` when two or more
        runs cannot share one pipeline: their atoms, timesteps or
        forces differ, or they are thermostatted or not in a
        reflective box."""
        if len(engines) == 1:
            return engines[0]
        _validate(engines)
        joined = copy.copy(engines[0])
        joined.systems = [e.system for e in engines]
        joined.boundaries = [e.boundary for e in engines]
        joined.nlists = [e.neighbors for e in engines]
        return joined

    @property
    def n_runs(self) -> int:
        return len(self.systems)

    @property
    def system(self) -> AtomSystem:
        """The first run's system (the only one of a one-run engine)."""
        return self.systems[0]

    @property
    def boundary(self) -> Boundary:
        """The first run's boundary."""
        return self.boundaries[0]

    @property
    def neighbors(self) -> NeighborList:
        """The first run's Verlet list."""
        return self.nlists[0]

    # -- phases ---------------------------------------------------------------

    def _phase_rebuild(self) -> Tuple[List[bool], List[PhaseWork]]:
        """Phases 2+3 (the rebuild half of the fused 3+4 loop): one
        stacked displacement test decides which runs rebuild; those
        runs rebuild their lists in one stacked pass, and then the
        run-offset pair list is re-spliced."""
        R, N = self.n_runs, self.system.n_atoms
        # runs that did not rebuild share one zero-work object (see
        # step_all for why sharing across runs is invisible)
        idle = PhaseWork(per_atom=np.zeros(N))
        if not self._needs_nlist:
            return [False] * R, [idle] * R
        P = self.state.positions
        disp = np.abs(P - self._ref).max(axis=(1, 2))
        rebuilt = (disp > self.neighbors.skin / 2.0).tolist()
        runs = [r for r in range(R) if rebuilt[r]]
        self._rebuild(runs)
        self._ref[runs] = P[runs]
        works = []
        for r, nl in enumerate(self.nlists):
            if not rebuilt[r]:
                works.append(idle)
                continue
            cand = nl.last_candidates
            # candidate examination distributes like list ownership
            per_atom = nl.per_atom_counts(N).astype(np.float64)
            scale = cand / max(per_atom.sum(), 1.0)
            works.append(PhaseWork(
                per_atom=per_atom * scale,
                flops=REBUILD_FLOPS_PER_CANDIDATE * cand,
                bytes_irregular=REBUILD_BYTES_PER_CANDIDATE * cand,
                terms=cand,
            ))
        if any(rebuilt):
            self._pairs.refresh(self.nlists, N)
        return rebuilt, works

    def _rebuild(self, runs: List[int]) -> None:
        """Rebuild the lists of ``runs`` from their current positions
        in one stacked pass (:func:`build_lists`)."""
        P = self.state.positions
        build_lists(
            [self.nlists[r] for r in runs],
            [P[r] for r in runs],
            [self.boundaries[r] for r in runs],
        )

    def _phase_forces(self) -> Tuple[List[ForceColumns], ForceColumns]:
        """Phases 4+5: each kernel evaluates every run's terms in one
        call.  Returns the kernels' columns and their sum in force
        order (the zero start and each add are the same IEEE adds as
        a per-run Python ``+=`` over the kernels)."""
        R, N = self.n_runs, self.system.n_atoms
        self.state.forces[...] = 0.0
        flat = self._flat
        columns = [
            f.compute_runs(flat, self._box, self._pairs, flat.forces, R)
            for f in self._kernels
        ]
        return columns, sum(columns, ForceColumns.empty(R, N))

    @staticmethod
    def _one(rows: list):
        if len(rows) != 1:
            raise ValueError(
                f"{len(rows)}-run engine: use step_all() or run_all()"
            )
        return rows[0]

    # -- public API --------------------------------------------------------------

    def prime(self) -> None:
        """Stack the runs' state and evaluate initial neighbor lists,
        forces and accelerations (idempotent)."""
        if self._primed:
            return
        R, N = self.n_runs, self.system.n_atoms
        self.state = _RunStack(self.systems)
        self._flat = self.state.run_major(self.system, R)
        #: the boundary of the stacks and the run-major view: a
        #: reflective box over the per-run boxes (validated reflective,
        #: whose displacement is the identity) when there are several
        self._box = self.boundary if R == 1 else ReflectiveBox(
            np.stack([b.box for b in self.boundaries])[:, None, :]
        )
        self._kernels = [f.replicate(R, N) for f in self.forces]
        self._pairs = None
        if self._needs_nlist:
            self._rebuild([
                r for r, nl in enumerate(self.nlists)
                if nl.needs_rebuild(self.state.positions[r])
            ])
            #: stacked rebuild-reference positions, so the validity
            #: check is one array operation for every run
            self._ref = np.stack([nl._ref_positions for nl in self.nlists])
            self._pairs = _RunPairs(
                self.neighbors.cutoff, self.neighbors.skin
            )
            self._pairs.refresh(self.nlists, N)
        self._phase_forces()
        self.integrator.prime(self.state)
        self._primed = True

    def step_all(self) -> List[StepReport]:
        """Advance every run one timestep; returns one report per run."""
        self.prime()
        state, integ = self.state, self.integrator
        N = self.system.n_atoms
        integ.predict(state)
        self._box.apply(state.positions, state.velocities)
        rebuilt, rebuild_works = self._phase_rebuild()
        columns, total = self._phase_forces()
        integ.correct(state)
        if self.thermostat is not None:  # one-run engines only
            self.thermostat.apply(self.system, integ.dt)
        self.step_count += 1
        kinetic = kinetic_energies(state.masses, state.velocities)
        # Predict/correct work is the same for every run, so all runs
        # share one PhaseWork each at this step.  Each run's trace is
        # pickled on its own, so sharing across runs never reaches the
        # bytes; but these must be fresh objects every step, because
        # one object reused across steps would be memoized by pickle
        # within a run's trace and change its bytes.
        predict_work = PhaseWork(
            per_atom=np.ones(N),
            flops=integ.PREDICT_FLOPS * N,
            bytes_regular=integ.BYTES_PER_ATOM * N,
        )
        correct_work = PhaseWork(
            per_atom=np.ones(N),
            flops=integ.CORRECT_FLOPS * N,
            bytes_regular=integ.BYTES_PER_ATOM * N,
        )
        # A run's kernel PhaseWork holds the very per-atom row its
        # ForceResult holds, so pickle writes that array once and then
        # a memo reference, as it always has.
        names = [f.name for f in self.forces]
        per_kernel = [c.results() for c in columns]
        # per run: the summed energy, then the sums in PhaseWork order
        totals = zip(
            total.energy.tolist(), total.per_atom_work, total.flops.tolist(),
            total.bytes_irregular.tolist(), total.bytes_regular.tolist(),
            total.terms.tolist(),
        )
        reports = []
        for r, (potential, *work) in enumerate(totals):
            results = {}
            kernels = {}
            for name, runs in zip(names, per_kernel):
                results[name] = res = runs[r]
                kernels[name] = PhaseWork(
                    res.per_atom_work, res.flops, res.bytes_irregular,
                    res.bytes_regular, res.terms,
                )
            reports.append(StepReport(
                self.step_count,
                rebuilt[r],
                potential,
                kinetic[r],
                results,
                {
                    "predict": predict_work,
                    "rebuild": rebuild_works[r],
                    "forces": PhaseWork(*work),
                    "correct": correct_work,
                },
                kernels,
            ))
        return reports

    def run_all(self, n_steps: int) -> List[List[StepReport]]:
        """Run ``n_steps`` timesteps; returns one trace per run."""
        rows = [self.step_all() for _ in range(n_steps)]
        return [[row[r] for row in rows] for r in range(self.n_runs)]

    def step(self) -> StepReport:
        """Advance a one-run engine one timestep; returns its report."""
        return self._one(self.step_all())

    def run(self, n_steps: int) -> List[StepReport]:
        """Run a one-run engine ``n_steps`` timesteps; returns its
        reports."""
        return [self.step() for _ in range(n_steps)]

    def potential_energy(self) -> float:
        """Potential energy of a one-run engine at the current positions
        (no state change other than refreshed forces)."""
        self.prime()
        return self._one(self._phase_forces()[1].energy.tolist())
