"""Morse pair potential — a metals-friendly alternative to 12-6 LJ.

Molecular Workbench's element editor exposes alternative pair models;
the Morse form U(r) = D (1 - e^{-a(r - r0)})² - D is the usual choice
for metallic bonding because its repulsive wall is softer than LJ's
r^-12.  The implementation mirrors :class:`LennardJonesForce`: it
consumes the Verlet neighbor list, honors the lower-index ownership
convention, supports ``restrict``/``remap`` for the parallel engine and
the inspector/executor, and reports the same work counts.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.md.boundary import Boundary
from repro.md.forces.base import (
    NO_TERMS,
    Force,
    ForceResult,
    scatter_forces,
    split_runs,
)
from repro.md.neighbors import NeighborList
from repro.md.system import AtomSystem

#: flops per evaluated Morse pair (distance, exp, force vector)
FLOPS_PER_PAIR = 90.0
IRREGULAR_BYTES_PER_PAIR = 2 * 64.0


class MorseForce(Force):
    """Pairwise Morse interaction over the neighbor list.

    Parameters
    ----------
    depth:
        Well depth D (eV).
    width:
        Inverse width a (1/Å); larger = narrower well.
    r0:
        Equilibrium separation (Å).
    cutoff:
        Interaction cutoff (Å); must be <= the neighbor-list cutoff.
    skip_fixed_pairs / owner_range:
        As in :class:`LennardJonesForce`.
    """

    name = "morse"

    def __init__(
        self,
        depth: float = 0.35,
        width: float = 1.4,
        r0: float = 2.9,
        cutoff: float = 8.0,
        skip_fixed_pairs: bool = True,
        owner_range: Optional[tuple] = None,
    ):
        if depth <= 0 or width <= 0 or r0 <= 0 or cutoff <= 0:
            raise ValueError("depth, width, r0 and cutoff must be positive")
        self.depth = depth
        self.width = width
        self.r0 = r0
        self.cutoff = cutoff
        self.skip_fixed_pairs = skip_fixed_pairs
        self.owner_range = owner_range

    def uses_neighbor_list(self) -> bool:
        """Morse is cutoff-bounded: it consumes the Verlet list."""
        return True

    def restrict(self, lo: int, hi: int) -> "MorseForce":
        """Copy computing only pairs owned (lower index) in [lo, hi)."""
        return MorseForce(
            self.depth,
            self.width,
            self.r0,
            self.cutoff,
            skip_fixed_pairs=self.skip_fixed_pairs,
            owner_range=(lo, hi),
        )

    def _bundle(
        self,
        system: AtomSystem,
        boundary: Boundary,
        neighbors: Optional[NeighborList],
        forces_out: np.ndarray,
    ):
        """Core of :meth:`compute_runs`; returns ``(owner, e_terms)``
        or ``None`` (see :meth:`LennardJonesForce._bundle`)."""
        if neighbors is None or not neighbors.built:
            raise RuntimeError("Morse force requires a built neighbor list")
        i, j, dr = neighbors.pairs_within(system.positions, boundary)
        if self.owner_range is not None and len(i):
            lo, hi = self.owner_range
            keep = (i >= lo) & (i < hi)
            i, j, dr = i[keep], j[keep], dr[keep]
        if self.skip_fixed_pairs and len(i):
            keep = system.movable[i] | system.movable[j]
            i, j, dr = i[keep], j[keep], dr[keep]
        if len(i):
            r2 = np.einsum("ij,ij->i", dr, dr)
            inside = r2 <= self.cutoff * self.cutoff
            i, j, dr, r2 = i[inside], j[inside], dr[inside], r2[inside]
        if len(i) == 0:
            return None

        r = np.sqrt(r2)
        e = np.exp(-self.width * (r - self.r0))
        # U = D (1 - e)^2 - D, shifted so U(cutoff) = 0
        e_cut = np.exp(-self.width * (self.cutoff - self.r0))
        u_cut = self.depth * ((1.0 - e_cut) ** 2 - 1.0)
        e_terms = self.depth * ((1.0 - e) ** 2 - 1.0) - u_cut
        # dU/dr = 2 D a e (1 - e);  F = -dU/dr * r̂
        dudr = 2.0 * self.depth * self.width * e * (1.0 - e)
        coef = -dudr / np.where(r > 1e-12, r, 1.0)
        fvec = coef[:, None] * dr
        scatter_forces(forces_out, (i, j), (fvec, -fvec))
        return i, e_terms

    def compute(
        self,
        system: AtomSystem,
        boundary: Boundary,
        neighbors: Optional[NeighborList],
        forces_out: np.ndarray,
    ) -> ForceResult:
        """Accumulate Morse forces; see :class:`Force`."""
        return self.compute_runs(system, boundary, neighbors, forces_out, 1)[0]

    def compute_runs(
        self,
        system: AtomSystem,
        boundary: Boundary,
        neighbors: Optional[NeighborList],
        forces_out: np.ndarray,
        n_runs: int,
    ) -> List[ForceResult]:
        n = system.n_atoms // n_runs
        owner, e_terms = (
            self._bundle(system, boundary, neighbors, forces_out) or NO_TERMS
        )
        runs, per_atom = split_runs(owner, e_terms, n_runs, n)
        return [
            ForceResult(
                energy=energy,
                terms=m,
                per_atom_work=per_atom[r],
                flops=FLOPS_PER_PAIR * m,
                bytes_irregular=IRREGULAR_BYTES_PER_PAIR * m,
                bytes_regular=0.0,
            )
            for r, (m, energy) in enumerate(runs)
        ]
