"""Parametric workload families for scaling studies.

The paper's complexity claims — linked cells keep neighbor finding
O(N) (§II-B) while all-pairs Coulomb is O(N²) — need workloads whose
size is a free parameter at constant density.  These builders provide
them: an Al-1000-style LJ block and a salt-style ionic system, both
scaled by atom count.

A scaled workload's lattice, box, static arrays and thermal scale do
not depend on its seed, so each process builds them once per family,
size and temperature; a seed only draws the site jitter and the
velocities.  (The paper builders are built whole per seed: their box
depends on the jittered positions.)
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from repro.md.elements import ELEMENTS
from repro.md.forces import CoulombForce, LennardJonesForce
from repro.md.system import AtomSystem
from repro.workloads.base import Workload
from repro.workloads.generators import cubic_lattice

#: frames (one per family, size and temperature) a process keeps
FRAME_CACHE_SIZE = 16


def _cube_side(n_atoms: int) -> int:
    side = round(n_atoms ** (1.0 / 3.0))
    while side**3 < n_atoms:
        side += 1
    return side


def _lattice(
    n_atoms: int, spacing: float, margin: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The first ``n_atoms`` sites of the smallest cubic lattice that
    holds them, offset by ``margin``, and the box around the whole
    lattice."""
    side = _cube_side(n_atoms)
    lattice = cubic_lattice((side, side, side), spacing, origin=(margin,) * 3)
    return lattice[:n_atoms], lattice.max(axis=0) + margin


class _Frame:
    """What a scaled workload's seed does not change: the system on
    its lattice sites, at rest, and the thermal velocity scale of its
    atoms.  Built once per process (the ``_*_frame`` builders are
    memoized); :meth:`seeded` draws the rest."""

    def __init__(
        self, system: AtomSystem, jitter: float, temperature_k: float
    ):
        self.system = system
        self.jitter = jitter
        self.scale = system.thermal_scale(temperature_k)

    def seeded(self, seed: int) -> AtomSystem:
        """A copy with ``seed``'s site jitter and then its velocities,
        drawn from one ``default_rng(seed)`` stream in that order."""
        rng = np.random.default_rng(seed)
        system = self.system.copy()
        system.positions += rng.normal(
            0.0, self.jitter, system.positions.shape
        )
        system.draw_velocities(self.scale, rng)
        return system


@functools.lru_cache(maxsize=FRAME_CACHE_SIZE)
def _al_frame(n_atoms: int, spacing: float, temperature_k: float) -> _Frame:
    if n_atoms < 2:
        raise ValueError(f"need at least 2 atoms, got {n_atoms}")
    sites, box = _lattice(n_atoms, spacing, margin=10.0)
    system = AtomSystem(box)
    system.add_atoms("Al", sites)
    return _Frame(system, 0.01, temperature_k)


def build_lj_block(
    n_atoms: int, seed: int = 0, temperature_k: float = 150.0
) -> Workload:
    """An Al block of ``n_atoms`` at constant (near-equilibrium) density."""
    spacing = 2.0 ** (1.0 / 6.0) * ELEMENTS["Al"].sigma
    return Workload(
        name=f"lj-{n_atoms}",
        system=_al_frame(n_atoms, spacing, temperature_k).seeded(seed),
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
    spacing = 2.2 * ELEMENTS["Al"].sigma
    return Workload(
        name=f"gas-{n_atoms}",
        system=_al_frame(n_atoms, spacing, temperature_k).seeded(seed),
        forces=[LennardJonesForce()],
        dt_fs=1.0,
        description=f"{n_atoms}-atom dilute LJ gas (sparse pair graph)",
    )


@functools.lru_cache(maxsize=FRAME_CACHE_SIZE)
def _ionic_frame(n_atoms: int, temperature_k: float) -> _Frame:
    if n_atoms < 2 or n_atoms % 2:
        raise ValueError(f"need an even atom count >= 2, got {n_atoms}")
    spacing, margin = 4.2, 8.0
    sites, box = _lattice(n_atoms, spacing, margin)
    # a site's charge follows its grid parity; the 0.05 Å jitter is far
    # too small to move a site to another grid point, so the sites
    # themselves decide it
    coords = np.rint((sites - margin) / spacing).astype(int)
    charges = np.where(coords.sum(axis=1) % 2 == 0, 1.0, -1.0)
    # enforce overall neutrality by flipping surplus ions at the tail
    surplus = int(charges.sum()) // 2
    if surplus != 0:
        sign = 1.0 if surplus > 0 else -1.0
        idx = np.nonzero(charges == sign)[0][-abs(surplus):]
        charges[idx] = -sign
    system = AtomSystem(box)
    na = charges > 0
    system.add_atoms("Na", sites[na], charges=1.0)
    system.add_atoms("Cl", sites[~na], charges=-1.0)
    site = np.concatenate([np.nonzero(na)[0], np.nonzero(~na)[0]])
    system.permute(np.argsort(site, kind="stable"))
    return _Frame(system, 0.05, temperature_k)


def build_ionic_gas(
    n_atoms: int, seed: int = 0, temperature_k: float = 400.0
) -> Workload:
    """Alternating +1/-1 ions on a cubic grid at constant density."""
    return Workload(
        name=f"ionic-{n_atoms}",
        system=_ionic_frame(n_atoms, temperature_k).seeded(seed),
        forces=[LennardJonesForce(), CoulombForce()],
        dt_fs=2.0,
        description=f"{n_atoms}-ion gas, all charged",
    )
