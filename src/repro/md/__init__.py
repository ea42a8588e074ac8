"""Classic molecular-dynamics engine (the Molecular Workbench substrate).

A full reimplementation of the simulation engine the paper parallelized
(§II): second-order Taylor predictor/corrector integration, linked-cell
O(N) neighbor finding, Verlet neighbor lists with displacement-triggered
rebuilds, and the three force families whose distinct access patterns
drive the whole performance story —

* Lennard-Jones between non-bonded atoms within a cutoff (irregular,
  neighbor-list-driven gathers),
* Coulombic forces between *every* pair of charged particles (regular,
  O(N²), compute-heavy),
* bonded forces — radial, angular, torsional, involving up to four
  atoms with indirect indexing into the atom array.

Everything is vectorized NumPy over structure-of-arrays state.  The
engine runs the real physics; each phase also reports *work counts*
(pairs examined, bond terms, bytes gathered) which the parallel layer
(:mod:`repro.core`) converts into simulated machine time.
"""

from repro.md.boundary import Boundary, PeriodicBox, ReflectiveBox
from repro.md.cells import LinkedCellGrid
from repro.md.elements import ELEMENTS, Element, mix_lorentz_berthelot
from repro.md.engine import MDEngine, StepReport
from repro.md.forces import (
    AngularBondForce,
    CoulombForce,
    LennardJonesForce,
    RadialBondForce,
    TorsionalBondForce,
)
from repro.md.integrator import TaylorPredictorCorrector
from repro.md.neighbors import NeighborList
from repro.md.system import AtomSystem
from repro.md.thermostat import BerendsenThermostat

__all__ = [
    "AngularBondForce",
    "AtomSystem",
    "BerendsenThermostat",
    "Boundary",
    "CoulombForce",
    "ELEMENTS",
    "Element",
    "LennardJonesForce",
    "LinkedCellGrid",
    "MDEngine",
    "NeighborList",
    "PeriodicBox",
    "RadialBondForce",
    "ReflectiveBox",
    "StepReport",
    "TaylorPredictorCorrector",
    "TorsionalBondForce",
    "mix_lorentz_berthelot",
]
