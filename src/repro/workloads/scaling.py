"""Parametric workload families for scaling studies.

The paper's complexity claims — linked cells keep neighbor finding
O(N) (§II-B) while all-pairs Coulomb is O(N²) — need workloads whose
size is a free parameter at constant density.  These builders provide
them: an Al-1000-style LJ block and a salt-style ionic system, both
scaled by atom count.
"""

from __future__ import annotations

import numpy as np

from repro.md.elements import ELEMENTS
from repro.md.forces import CoulombForce, LennardJonesForce
from repro.md.system import AtomSystem
from repro.workloads.base import Workload
from repro.workloads.generators import cubic_lattice


def _cube_side(n_atoms: int) -> int:
    side = round(n_atoms ** (1.0 / 3.0))
    while side**3 < n_atoms:
        side += 1
    return side


def build_lj_block(
    n_atoms: int, seed: int = 0, temperature_k: float = 150.0
) -> Workload:
    """An Al block of ``n_atoms`` at constant (near-equilibrium) density."""
    if n_atoms < 2:
        raise ValueError(f"need at least 2 atoms, got {n_atoms}")
    rng = np.random.default_rng(seed)
    spacing = 2.0 ** (1.0 / 6.0) * ELEMENTS["Al"].sigma
    side = _cube_side(n_atoms)
    margin = 10.0
    lattice = cubic_lattice((side, side, side), spacing, origin=(margin,) * 3)
    positions = lattice[:n_atoms] + rng.normal(0.0, 0.01, (n_atoms, 3))
    box = lattice.max(axis=0) + margin
    system = AtomSystem(box)
    system.add_atoms("Al", positions)
    system.set_thermal_velocities(temperature_k, rng)
    return Workload(
        name=f"lj-{n_atoms}",
        system=system,
        forces=[LennardJonesForce()],
        dt_fs=1.0,
        description=f"{n_atoms}-atom LJ block at crystal density",
    )


def build_lj_gas(
    n_atoms: int, seed: int = 0, temperature_k: float = 150.0
) -> Workload:
    """A dilute Al gas: the overhead-bound sweep regime.

    Lattice spacing of 2.2 sigma keeps only the six nearest neighbors
    inside the 2.5 sigma force cutoff — a sparse, irregular pair graph
    whose per-step array work is tiny, so one-run stepping is dominated
    by fixed interpreter/numpy-call overhead.  That is the regime where
    batching many runs into one ensemble pays most, which makes this
    the reference workload for the ensemble throughput gate
    (``tests/gates/test_ensemble.py``).
    """
    if n_atoms < 2:
        raise ValueError(f"need at least 2 atoms, got {n_atoms}")
    rng = np.random.default_rng(seed)
    spacing = 2.2 * ELEMENTS["Al"].sigma
    side = _cube_side(n_atoms)
    margin = 10.0
    lattice = cubic_lattice((side, side, side), spacing, origin=(margin,) * 3)
    positions = lattice[:n_atoms] + rng.normal(0.0, 0.01, (n_atoms, 3))
    box = lattice.max(axis=0) + margin
    system = AtomSystem(box)
    system.add_atoms("Al", positions)
    system.set_thermal_velocities(temperature_k, rng)
    return Workload(
        name=f"gas-{n_atoms}",
        system=system,
        forces=[LennardJonesForce()],
        dt_fs=1.0,
        description=f"{n_atoms}-atom dilute LJ gas (sparse pair graph)",
    )


def build_ionic_gas(
    n_atoms: int, seed: int = 0, temperature_k: float = 400.0
) -> Workload:
    """Alternating +1/-1 ions on a cubic grid at constant density."""
    if n_atoms < 2 or n_atoms % 2:
        raise ValueError(f"need an even atom count >= 2, got {n_atoms}")
    rng = np.random.default_rng(seed)
    spacing = 4.2
    side = _cube_side(n_atoms)
    margin = 8.0
    lattice = cubic_lattice((side, side, side), spacing, origin=(margin,) * 3)
    positions = lattice[:n_atoms] + rng.normal(0.0, 0.05, (n_atoms, 3))
    coords = np.rint((positions - margin) / spacing).astype(int)
    charges = np.where(coords.sum(axis=1) % 2 == 0, 1.0, -1.0)
    # enforce overall neutrality by flipping surplus ions at the tail
    surplus = int(charges.sum()) // 2
    if surplus != 0:
        sign = 1.0 if surplus > 0 else -1.0
        idx = np.nonzero(charges == sign)[0][-abs(surplus):]
        charges[idx] = -sign
    box = lattice.max(axis=0) + margin
    system = AtomSystem(box)
    na = charges > 0
    system.add_atoms("Na", positions[na], charges=1.0)
    system.add_atoms("Cl", positions[~na], charges=-1.0)
    site = np.concatenate([np.nonzero(na)[0], np.nonzero(~na)[0]])
    system.permute(np.argsort(site, kind="stable"))
    system.set_thermal_velocities(temperature_k, rng)
    return Workload(
        name=f"ionic-{n_atoms}",
        system=system,
        forces=[LennardJonesForce(), CoulombForce()],
        dt_fs=2.0,
        description=f"{n_atoms}-ion gas, all charged",
    )
