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
asymmetry.  :func:`half_shell_pairs` is the definition of that
ownership and of the pair order.

The kernel evaluates the ring as contiguous shifted blocks rather than
gathering both ends of every pair: block ``k`` pairs the packed
charged positions ``P[i]`` with ``P[(i+k) mod M]``, which is a strided
view of ``P`` laid end to end twice, and the even-M half ring is
``P[:M/2]`` against ``P[M/2:]``.  Per step the only gather is of the M
charged rows; the owner/partner atom index that the force scatter and
the ownership tally need is fixed by the ring and built once.

Memory character: the charged atoms are visited "in a linear fashion,
taking advantage of spatial memory locality if most atoms are charged"
(§V-A); traffic is regular and the per-pair arithmetic (sqrt, divide)
is heavy — the compute-bound profile.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.md.boundary import Boundary
from repro.md.forces.base import (
    Force,
    ForceColumns,
    owner_counts,
    scatter_components,
    segment_sums,
)
from repro.md.neighbors import NeighborList
from repro.md.system import AtomSystem
from repro.md.units import COULOMB_K

#: flops per charged pair (distance, sqrt, 1/r, 1/r^3, force vector)
FLOPS_PER_PAIR = 30.0
#: ring plans (one per charged layout and run count) each force copy
#: keeps — bounded LRU so alternating geometries (sweeps over several
#: systems sharing one force object) neither thrash nor grow without
#: limit
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


class _RingPlan(NamedTuple):
    """The step-invariant part of one force copy's ring over one
    charged layout: which ring columns it evaluates and the atom index
    its pairs scatter through."""

    #: owner columns [lo, hi) of every shifted block (charged-atom
    #: ranks; an owner range is a column range because ``charged`` is
    #: sorted) and the end of the even-M half ring's columns
    lo: int
    hi: int
    half_hi: int
    #: pairs per run in those columns
    width: int
    #: mask over the column-restricted ring pairs dropping pairs whose
    #: atoms are both fixed; None when every pair survives
    keep: Optional[np.ndarray]
    #: surviving pairs per run
    terms: int
    #: run-major owner atoms of every run, then their partners
    index: np.ndarray
    #: ``(n_runs, n_atoms)`` pairs owned per atom
    per_atom: np.ndarray


def _ring(op, owner, partner, plan: _RingPlan, out: np.ndarray) -> None:
    """``out[r, t] = op(owner[r, i], partner[r, j])`` for the t-th pair
    (i, j) of the column-restricted ring, in :func:`half_shell_pairs`
    order: block k = 1..⌊(m-1)/2⌋ over columns [lo, hi), then the
    half ring.  ``owner``/``partner`` are ``(n_runs, m, ...)``."""
    m = partner.shape[1]
    shifts = (m - 1) // 2
    lo, hi = plan.lo, plan.hi
    width = hi - lo
    doubled = np.concatenate([partner, partner], axis=1)
    run, row = doubled.strides[:2]
    # shifted[r, k-1, c] = doubled[r, lo + c + k] = partner[r, (i+k) % m]
    shifted = as_strided(
        doubled[:, 1 + lo:],
        shape=(len(partner), shifts, width) + partner.shape[2:],
        strides=(run, row, row) + doubled.strides[2:],
        writeable=False,
    )
    blocks = out[:, :shifts * width].reshape(shifted.shape)
    op(owner[:, None, lo:hi], shifted, out=blocks)
    if plan.half_hi > lo:
        half = slice(lo + m // 2, plan.half_hi + m // 2)
        op(
            owner[:, lo:plan.half_hi], partner[:, half],
            out=out[:, shifts * width:],
        )


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
        self._plans: "OrderedDict[tuple, _RingPlan]" = OrderedDict()

    def restrict(self, lo: int, hi: int) -> "CoulombForce":
        """A copy computing only pairs whose owner atom is in [lo, hi)."""
        return CoulombForce(self.min_distance, owner_range=(lo, hi))

    def _plan(
        self, charged: np.ndarray, movable: np.ndarray, n: int, n_runs: int
    ) -> _RingPlan:
        """The (cached) plan of the ring over one run's ``charged``
        atoms, repeated over ``n_runs`` runs of ``n`` atoms."""
        key = (n, n_runs, charged.tobytes(), movable[charged].tobytes())
        cache = self._plans
        if key in cache:
            cache.move_to_end(key)
            return cache[key]
        m = len(charged)
        ii, jj = half_shell_pairs(m)
        gi, gj = charged[ii], charged[jj]
        lo, hi = 0, m
        owned = np.ones(len(gi), dtype=bool)
        if self.owner_range is not None:
            lo, hi = np.searchsorted(charged, self.owner_range).tolist()
            owned = (ii >= lo) & (ii < hi)
        keep = (movable[gi] | movable[gj])[owned]
        offsets = np.arange(n_runs, dtype=np.int64)[:, None] * n
        owner = (gi[owned][keep] + offsets).ravel()
        partner = (gj[owned][keep] + offsets).ravel()
        plan = _RingPlan(
            lo=lo,
            hi=hi,
            half_hi=min(hi, m // 2) if m % 2 == 0 else lo,
            width=len(keep),
            keep=None if keep.all() else keep,
            terms=int(keep.sum()),
            index=np.concatenate([owner, partner]),
            per_atom=owner_counts(owner, n_runs * n).reshape(n_runs, n),
        )
        cache[key] = plan
        while len(cache) > RING_CACHE_SIZE:
            cache.popitem(last=False)
        return plan

    def compute_runs(
        self,
        system: AtomSystem,
        boundary: Boundary,
        neighbors: Optional[NeighborList],
        forces_out: np.ndarray,
        n_runs: int,
    ) -> ForceColumns:
        """The ring is laid over each run's own charged atoms: pairing
        charged atoms of different runs would be wrong physics."""
        n = system.n_atoms // n_runs
        charged = system.charged
        m = len(charged) // n_runs  # every run shares the charges
        plan = self._plan(charged[:m], system.movable, n, n_runs)
        if not plan.terms:
            return ForceColumns.empty(n_runs, n)
        pos = system.positions[charged].reshape(n_runs, m, 3)
        q = system.charges[charged].reshape(n_runs, m)
        dr = np.empty((n_runs, plan.width, 3))
        _ring(np.subtract, pos, pos, plan, dr)
        qq = np.empty((n_runs, plan.width))
        _ring(np.multiply, COULOMB_K * q, q, plan, qq)
        if plan.keep is not None:
            dr, qq = dr[:, plan.keep], qq[:, plan.keep]
        dr = boundary.displacement(dr.reshape(-1, 3))
        qq = qq.ravel()
        r2 = np.einsum("ij,ij->i", dr, dr)
        np.maximum(r2, self.min_distance**2, out=r2)
        r = np.sqrt(r2)
        coef = qq / (r2 * r)  # F/r
        # (3, 2, T): axis-k force on each owner, then on each partner
        fvec = np.empty((3, 2, len(coef)))
        np.multiply(coef, dr.T, out=fvec[:, 0])
        np.negative(fvec[:, 0], out=fvec[:, 1])
        scatter_components(forces_out, plan.index, fvec.reshape(3, -1))
        terms = np.full(n_runs, plan.terms)
        return ForceColumns(
            energy=segment_sums(qq / r, [plan.terms] * n_runs),
            terms=terms,
            per_atom_work=plan.per_atom.copy(),
            flops=FLOPS_PER_PAIR * terms,
            bytes_irregular=np.zeros(n_runs),
            bytes_regular=np.full(n_runs, REGULAR_BYTES_PER_ATOM * m),
        )
