"""Direct all-pairs Coulomb interactions.

"The second type of force that MW calculates is the Coulombic force
between charged particles.  Unlike LJ forces, Coulombic forces are
calculated between every pair of charged particles, regardless of
distance." (§II-B) — O(N²) in the charged-atom count.

Pair enumeration uses the classic *cyclic half-shell* decomposition:
charged atom ``i`` owns the pairs (i, i+1 .. i+⌊(M-1)/2⌋ mod M), so
Newton's third law halves the work while every atom owns the same
number of pairs.  This balanced ownership is what lets the salt
benchmark scale near-linearly (Fig. 1) even under the 1/N block
partition; the neighbor-list forces keep their lower-index-owns
asymmetry.

Memory character: the charged atoms are visited "in a linear fashion,
taking advantage of spatial memory locality if most atoms are charged"
(§V-A); traffic is regular and the per-pair arithmetic (sqrt, divide)
is heavy — the compute-bound profile.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from repro.md.boundary import Boundary
from repro.md.forces.base import (
    Force,
    ForceResult,
    scatter_forces,
    split_runs,
)
from repro.md.neighbors import NeighborList
from repro.md.system import AtomSystem
from repro.md.units import COULOMB_K

#: flops per charged pair (distance, sqrt, 1/r, 1/r^3, force vector)
FLOPS_PER_PAIR = 30.0
#: distinct charged-atom counts whose pair enumerations stay cached —
#: bounded LRU so alternating geometries (sweeps over several systems
#: sharing one force object) neither thrash nor grow without limit
RING_CACHE_SIZE = 4
#: unique streamed bytes per charged atom per evaluation: the linear
#: sweep re-reads the same packed position/charge arrays, so traffic is
#: one pass over the charged set (positions + charges + force row), not
#: per-pair — this is exactly why the Coulomb phase is compute-bound
REGULAR_BYTES_PER_ATOM = 56.0


def half_shell_pairs(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cyclic half-shell enumeration of all unordered pairs of ``m``
    items: owner ``i`` is paired with (i+k) mod m for k = 1..⌊(m-1)/2⌋,
    plus — for even m — the k = m/2 ring owned by its lower half.
    Every unordered pair appears exactly once."""
    if m < 2:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    base = np.arange(m, dtype=np.int64)
    owners = []
    partners = []
    for k in range(1, (m - 1) // 2 + 1):
        owners.append(base)
        partners.append((base + k) % m)
    if m % 2 == 0:
        half = np.arange(m // 2, dtype=np.int64)
        owners.append(half)
        partners.append(half + m // 2)
    return np.concatenate(owners), np.concatenate(partners)


class CoulombForce(Force):
    """k·q_i·q_j / r² between every pair of charged atoms.

    ``owner_range`` restricts evaluation to pairs owned by atoms in
    [lo, hi) — the parallel decomposition hook (see :meth:`restrict`).
    """

    name = "coulomb"

    def __init__(
        self,
        min_distance: float = 0.5,
        owner_range: Optional[Tuple[int, int]] = None,
    ):
        # short-range clamp keeps overlapping teaching-demo ions finite
        if min_distance <= 0:
            raise ValueError(f"min_distance must be positive: {min_distance}")
        self.min_distance = min_distance
        self.owner_range = owner_range
        self._ring_cache: "OrderedDict[int, Tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )

    def restrict(self, lo: int, hi: int) -> "CoulombForce":
        """A copy computing only pairs whose owner atom is in [lo, hi)."""
        other = CoulombForce(self.min_distance, owner_range=(lo, hi))
        other._ring_cache = self._ring_cache  # share the pair cache
        return other

    def _pairs(self, m: int) -> Tuple[np.ndarray, np.ndarray]:
        cache = self._ring_cache
        if m in cache:
            cache.move_to_end(m)
        else:
            cache[m] = half_shell_pairs(m)
            while len(cache) > RING_CACHE_SIZE:
                cache.popitem(last=False)
        return cache[m]

    def _pair_bundle(
        self,
        system: AtomSystem,
        boundary: Boundary,
        gi: np.ndarray,
        gj: np.ndarray,
        forces_out: np.ndarray,
    ):
        """Interaction math + scatter for an already-enumerated and
        filtered owner/partner pair list; returns ``(gi, e_terms)``."""
        dr = boundary.displacement(system.positions[gi] - system.positions[gj])
        r2 = np.einsum("ij,ij->i", dr, dr)
        np.maximum(r2, self.min_distance**2, out=r2)
        r = np.sqrt(r2)
        qq = COULOMB_K * system.charges[gi] * system.charges[gj]
        coef = qq / (r2 * r)  # F/r
        fvec = coef[:, None] * dr
        scatter_forces(forces_out, (gi, gj), (fvec, -fvec))
        return gi, qq / r

    def compute(
        self,
        system: AtomSystem,
        boundary: Boundary,
        neighbors: Optional[NeighborList],
        forces_out: np.ndarray,
    ) -> ForceResult:
        return self.compute_runs(system, boundary, neighbors, forces_out, 1)[0]

    def compute_runs(
        self,
        system: AtomSystem,
        boundary: Boundary,
        neighbors: Optional[NeighborList],
        forces_out: np.ndarray,
        n_runs: int,
    ) -> List[ForceResult]:
        """The ring is enumerated over one run's charged atoms and
        repeated with run offsets: pairing charged atoms of different
        runs would be wrong physics."""
        n = system.n_atoms // n_runs
        charged = system.charged
        m = len(charged) // n_runs  # every run shares the charges
        ii, jj = self._pairs(m)
        gi, gj = charged[ii], charged[jj]
        keep = system.movable[gi] | system.movable[gj]
        if self.owner_range is not None:
            lo, hi = self.owner_range
            keep &= (gi >= lo) & (gi < hi)
        if not keep.any():
            return [ForceResult.empty(n) for _ in range(n_runs)]
        offsets = np.arange(n_runs, dtype=np.int64)[:, None] * n
        gi = (gi[keep] + offsets).ravel()
        gj = (gj[keep] + offsets).ravel()
        owner, e_terms = self._pair_bundle(
            system, boundary, gi, gj, forces_out
        )
        runs, per_atom = split_runs(owner, e_terms, n_runs, n)
        return [
            ForceResult(
                energy=energy,
                terms=terms,
                per_atom_work=per_atom[r],
                flops=FLOPS_PER_PAIR * terms,
                bytes_irregular=0.0,
                bytes_regular=REGULAR_BYTES_PER_ATOM * m,
            )
            for r, (terms, energy) in enumerate(runs)
        ]
