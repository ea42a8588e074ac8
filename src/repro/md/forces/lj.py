"""Lennard-Jones interactions over the Verlet neighbor list.

"The first is the force between non-bonded atoms, found using the
Lennard-Jones (LJ) approximation.  To improve performance, these forces
are only computed between atoms that are within a cutoff distance, or
neighborhood, of each other." (§II-B)

Memory character: for each owned pair the neighbor atom's position is
*gathered* through the pair index — atoms "physically adjacent in
simulation space, though not necessarily near one another in memory"
(§V-A).  The work accounting marks those bytes irregular.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.md.boundary import Boundary
from repro.md.forces.base import (
    NO_TERMS,
    Force,
    ForceColumns,
    scatter_axes,
    split_runs,
)
from repro.md.neighbors import NeighborList, dot3, pair_displacements
from repro.md.system import AtomSystem

#: flops per evaluated LJ pair (distance, mixing, r^-6/r^-12, force vec)
FLOPS_PER_PAIR = 70.0
#: bytes gathered per pair through the neighbor indirection: the
#: neighbor's position + parameters land on uncorrelated cache lines
IRREGULAR_BYTES_PER_PAIR = 2 * 64.0
#: bytes streamed per owned atom (own position/params, force row)
REGULAR_BYTES_PER_ATOM = 96.0


class _PairTable(NamedTuple):
    """What :meth:`LennardJonesForce._pair_table` keeps per list
    generation: the pairs the force can evaluate and, per pair, the
    mixed σ², ε and squared cutoff."""

    generation: int
    i: np.ndarray
    j: np.ndarray
    sig2: np.ndarray
    eps: np.ndarray
    cutoff2: np.ndarray


class LennardJonesForce(Force):
    """Pairwise 12-6 LJ with Lorentz-Berthelot mixing.

    Parameters
    ----------
    cutoff_factor:
        Per-pair interaction cutoff as a multiple of the mixed sigma
        (2.5 is the conventional choice); pairs beyond it contribute
        zero ("the Lennard-Jones force is considered to be zero").
    exclusions:
        Optional (M, 2) int array of atom pairs to skip — bonded pairs,
        whose interaction the bonded terms own.
    skip_fixed_pairs:
        Skip pairs where both atoms are immovable: "fixed-location atoms
        making up the platform do not interact with one another".
    """

    name = "lj"

    def __init__(
        self,
        cutoff_factor: float = 2.5,
        exclusions: Optional[np.ndarray] = None,
        skip_fixed_pairs: bool = True,
        owner_range: Optional[tuple] = None,
    ):
        if cutoff_factor <= 0:
            raise ValueError(f"cutoff_factor must be positive: {cutoff_factor}")
        self.cutoff_factor = cutoff_factor
        self.skip_fixed_pairs = skip_fixed_pairs
        self.owner_range = owner_range
        self.exclusions: Optional[np.ndarray] = None
        self._exclusion_keys: Optional[np.ndarray] = None
        if exclusions is not None and len(exclusions):
            self.exclusions = np.asarray(exclusions, dtype=np.int64)
            lo = np.minimum(self.exclusions[:, 0], self.exclusions[:, 1])
            hi = np.maximum(self.exclusions[:, 0], self.exclusions[:, 1])
            self._exclusion_keys = np.unique(lo << 32 | hi)
        self._table: Optional[_PairTable] = None

    def restrict(self, lo: int, hi: int) -> "LennardJonesForce":
        """A copy computing only pairs owned (lower index) in [lo, hi)."""
        other = LennardJonesForce(
            self.cutoff_factor,
            exclusions=self.exclusions,
            skip_fixed_pairs=self.skip_fixed_pairs,
            owner_range=(lo, hi),
        )
        return other

    def remap(self, mapping: np.ndarray) -> "LennardJonesForce":
        """Copy with exclusion pairs renumbered through ``mapping``."""
        ex = None
        if self.exclusions is not None:
            ex = np.asarray(mapping)[self.exclusions]
        return LennardJonesForce(
            self.cutoff_factor,
            exclusions=ex,
            skip_fixed_pairs=self.skip_fixed_pairs,
            owner_range=self.owner_range,
        )

    def replicate(self, n_runs: int, n_atoms: int) -> "LennardJonesForce":
        """Copy with the exclusion pairs repeated for every run."""
        ex = self.exclusions
        if ex is not None:
            ex = np.concatenate([ex + r * n_atoms for r in range(n_runs)])
        return LennardJonesForce(
            self.cutoff_factor,
            exclusions=ex,
            skip_fixed_pairs=self.skip_fixed_pairs,
            owner_range=self.owner_range,
        )

    def uses_neighbor_list(self) -> bool:
        return True

    def _pair_table(
        self, system: AtomSystem, neighbors: NeighborList
    ) -> _PairTable:
        """The step-invariant part of every pair of ``neighbors``,
        computed once per list generation (rebuild or splice): the
        pairs this force can ever evaluate — the owner range, the
        fixed-pair rule and the exclusions drop the rest — with their
        mixed σ², ε and squared cutoff, the smaller of the list's and
        this force's per-pair one.  Reads the system's σ, ε and
        movable flags as they are at that generation."""
        table = self._table
        if table is not None and table.generation == neighbors.generation:
            return table
        i, j = neighbors.pairs_i, neighbors.pairs_j
        keep = None
        if self.owner_range is not None:
            lo, hi = self.owner_range
            keep = (i >= lo) & (i < hi)
        if self.skip_fixed_pairs and not system.movable.all():
            free = system.movable[i] | system.movable[j]
            keep = free if keep is None else keep & free
        if self._exclusion_keys is not None:
            bonded = np.isin(i << 32 | j, self._exclusion_keys)
            keep = ~bonded if keep is None else keep & ~bonded
        if keep is not None and not keep.all():
            i, j = i[keep], j[keep]
        sig = 0.5 * (system.sigma[i] + system.sigma[j])
        cutoff2 = neighbors.cutoff * neighbors.cutoff
        self._table = table = _PairTable(
            generation=neighbors.generation,
            i=i,
            j=j,
            sig2=sig * sig,
            eps=np.sqrt(system.epsilon[i] * system.epsilon[j]),
            cutoff2=np.minimum((self.cutoff_factor * sig) ** 2, cutoff2),
        )
        return table

    def _bundle(
        self,
        system: AtomSystem,
        boundary: Boundary,
        neighbors: Optional[NeighborList],
        forces_out: np.ndarray,
    ):
        """Core of :meth:`compute_runs`: filter the candidate pairs,
        accumulate forces into ``forces_out`` and return
        ``(owner, e_terms)`` — the owning atom index and shifted energy
        of every evaluated pair — or ``None`` when no pair survives.
        Index-agnostic, so one call serves every run of a run-major
        system with a run-offset pair list.

        A step gathers the table's pairs axis by axis, takes r² once
        and compresses once, to the pairs inside their cutoff."""
        if neighbors is None or not neighbors.built:
            raise RuntimeError("LJ force requires a built neighbor list")
        t = self._pair_table(system, neighbors)
        i, j, sig2, eps = t.i, t.j, t.sig2, t.eps
        if len(i) == 0:
            return None
        dr = pair_displacements(system.positions, i, j, boundary)
        r2 = dot3(dr, dr)
        inside = r2 <= t.cutoff2
        if not inside.all():  # all() skips the no-op filtered copies
            # one index serves all six gathers: a take is a fraction of
            # a boolean compress, which rescans the mask each time
            k = np.flatnonzero(inside)
            if len(k) == 0:
                return None
            i, j, sig2, eps, r2 = (
                i.take(k), j.take(k), sig2.take(k), eps.take(k), r2.take(k)
            )
            dr = dr.take(k, axis=1)

        inv2 = sig2 / r2
        inv6 = inv2 * inv2 * inv2
        inv12 = inv6 * inv6
        # F(r)/r = 24 eps (2 (sig/r)^12 - (sig/r)^6) / r^2
        coef = 24.0 * eps * (2.0 * inv12 - inv6) / r2
        fvec = np.multiply(coef, dr, out=dr)
        scatter_axes(forces_out, (i, j), (fvec, -fvec))
        # energy terms, shifted so U(rc)=0 (avoids cutoff discontinuity)
        inv2c = 1.0 / (self.cutoff_factor * self.cutoff_factor)
        inv6c = inv2c**3
        e_shift = 4.0 * eps * (inv6c * inv6c - inv6c)
        e_terms = 4.0 * eps * (inv12 - inv6) - e_shift
        return i, e_terms

    def compute_runs(
        self,
        system: AtomSystem,
        boundary: Boundary,
        neighbors: Optional[NeighborList],
        forces_out: np.ndarray,
        n_runs: int,
    ) -> ForceColumns:
        n = system.n_atoms // n_runs
        owner, e_terms = (
            self._bundle(system, boundary, neighbors, forces_out) or NO_TERMS
        )
        terms, energy, per_atom = split_runs(owner, e_terms, n_runs, n)
        return ForceColumns(
            energy=energy,
            terms=terms,
            per_atom_work=per_atom,
            flops=FLOPS_PER_PAIR * terms,
            bytes_irregular=IRREGULAR_BYTES_PER_PAIR * terms,
            bytes_regular=REGULAR_BYTES_PER_ATOM * (per_atom > 0).sum(axis=1),
        )
