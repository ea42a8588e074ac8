"""Heat-bath coupling (MW's "heat up / cool down" control).

Berendsen weak coupling: gentle and non-canonical, it steers the
temperature of a run toward a target the caller may change between
steps.
"""

from __future__ import annotations

import math

from repro.md.system import AtomSystem


class BerendsenThermostat:
    """Weak-coupling velocity rescale toward a target temperature.

    λ = sqrt(1 + (dt/τ)(T0/T − 1)); velocities of movable atoms scale by
    λ each step.  τ >> dt gives gentle coupling; τ == dt snaps to T0.
    """

    def __init__(self, target_k: float, tau_fs: float = 100.0):
        if target_k < 0:
            raise ValueError(f"negative target temperature: {target_k}")
        if tau_fs <= 0:
            raise ValueError(f"tau must be positive: {tau_fs}")
        self.target_k = target_k
        self.tau_fs = tau_fs

    def apply(self, system: AtomSystem, dt_fs: float) -> float:
        """Rescale velocities; returns the λ factor used."""
        t = system.temperature()
        if t <= 1e-12:
            return 1.0
        lam2 = 1.0 + (dt_fs / self.tau_fs) * (self.target_k / t - 1.0)
        lam = math.sqrt(max(lam2, 0.0))
        system.velocities[system.movable] *= lam
        return lam
