"""Second-order Taylor predictor / corrector integration.

"At each timestep, the position and velocity of each atom is predicted
by applying a second order Taylor expansion of the basic equations of
motion to the current position, velocity, and acceleration.  Next, the
new forces acting on the atom are computed using these predicted values
... Finally, a corrector step is performed that updates the atom
velocities based on the newly computed forces." (§II-A)

With the half-step velocity correction this scheme is algebraically the
velocity-Verlet integrator, so it conserves energy to O(dt²) — verified
by the property tests.
"""

from __future__ import annotations

import numpy as np

from repro.md.system import AtomSystem
from repro.md.units import ACCEL_UNIT


class TaylorPredictorCorrector:
    """Predictor: x += v·dt + ½a·dt², v += a·dt.
    Corrector: v += ½(a_new − a_old)·dt (net: v += ½(a_old+a_new)·dt).
    """

    #: flops per atom in each half (cost-model constants)
    PREDICT_FLOPS = 12.0
    CORRECT_FLOPS = 9.0
    #: bytes streamed per atom (positions/velocities/accelerations rows)
    BYTES_PER_ATOM = 9 * 8.0

    def __init__(self, dt_fs: float):
        if dt_fs <= 0:
            raise ValueError(f"timestep must be positive: {dt_fs}")
        self.dt = float(dt_fs)

    def predict(self, system: AtomSystem, lo: int = 0, hi=None) -> None:
        """Phase 1: advance positions and predict velocities (movable
        atoms only — platform atoms stay put).  ``lo``/``hi`` restrict
        to an atom range so threads can process disjoint partitions.

        All three methods index the kinematic arrays as ``[..., sl, :]``
        so they operate unchanged on one system's ``(n, 3)`` arrays and
        on the engine's stacked ``(n_runs, n, 3)`` arrays (the atom
        axis is always second-from-last)."""
        dt = self.dt
        sl = slice(lo, hi)
        mv = system.movable[sl]
        pos = system.positions[..., sl, :]
        vel = system.velocities[..., sl, :]
        acc = system.accelerations[..., sl, :]
        pos[..., mv, :] += vel[..., mv, :] * dt + 0.5 * acc[..., mv, :] * dt * dt
        vel[..., mv, :] += acc[..., mv, :] * dt

    def correct(self, system: AtomSystem, lo: int = 0, hi=None) -> None:
        """Phase 6: recompute accelerations from the fresh forces and
        apply the half-step velocity correction (range-restrictable)."""
        dt = self.dt
        sl = slice(lo, hi)
        mv = system.movable[sl]
        vel = system.velocities[..., sl, :]
        acc = system.accelerations[..., sl, :]
        a_new = (
            system.forces[..., sl, :][..., mv, :]
            / system.masses[sl][mv, None]
            * ACCEL_UNIT
        )
        vel[..., mv, :] += 0.5 * (a_new - acc[..., mv, :]) * dt
        acc[..., mv, :] = a_new

    def prime(self, system: AtomSystem) -> None:
        """Initialize accelerations from current forces (call once after
        the first force evaluation, before stepping).  Writes in place,
        so views of the acceleration array stay live."""
        mv = system.movable
        a = system.accelerations
        a[...] = 0.0
        a[..., mv, :] = (
            system.forces[..., mv, :] / system.masses[mv, None] * ACCEL_UNIT
        )
