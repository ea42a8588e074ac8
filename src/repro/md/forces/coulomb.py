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
charged rows, and the charge products k·q_i·q_j are fixed by the ring
and built once.  The forces are summed the same way, in ring order: an
in-order reduction over the blocks gives each atom's owner terms, and
one over a skewed view of the same blocks its partner terms, so no
per-pair atom index is kept or scattered through.

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
    segment_sums,
)
from repro.md.neighbors import NeighborList, axis_displacements, dot3
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
    charged layout: which ring columns it evaluates and the charge
    products of its pairs."""

    #: owner columns [lo, hi) of every shifted block (charged-atom
    #: ranks; an owner range is a column range because ``charged`` is
    #: sorted) and the end of the even-M half ring's columns
    cols: Tuple[int, int, int]
    #: pairs per run in those columns
    width: int
    #: mask over the column-restricted ring pairs dropping pairs whose
    #: atoms are both fixed; None when every pair survives
    keep: Optional[np.ndarray]
    #: surviving pairs per run
    terms: int
    #: run-major k·q_i·q_j of every surviving pair
    qq: np.ndarray
    #: ``(n_runs, n_atoms)`` pairs owned per atom
    per_atom: np.ndarray


def _ring(op, owner, partner, cols: Tuple[int, int, int], out) -> None:
    """``out[r, t] = op(owner[r, i], partner[r, j])`` for the t-th pair
    (i, j) of the ring restricted to ``cols`` (see :class:`_RingPlan`),
    in :func:`half_shell_pairs` order: block k = 1..⌊(m-1)/2⌋ over
    columns [lo, hi), then the half ring.  ``owner``/``partner`` are
    ``(n_runs, m, ...)``."""
    m = partner.shape[1]
    shifts = max((m - 1) // 2, 0)
    lo, hi, half_hi = cols
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
    if half_hi > lo:
        half = slice(lo + m // 2, half_hi + m // 2)
        op(owner[:, lo:half_hi], partner[:, half], out=out[:, shifts * width:])


def _scatter_ring(
    forces_out: np.ndarray,
    charged: np.ndarray,
    coef: np.ndarray,
    dr: np.ndarray,
    plan: _RingPlan,
    m: int,
    scratch: np.ndarray,
) -> None:
    """``forces_out[charged] += `` each charged atom's ring force, axis
    by axis, summed in the order a scatter of the owner-then-partner
    pair index would add them: the atom's owner terms k = 1..S, its
    half-ring owner term, its partner terms k = 1..S, then its half-ring
    partner term (S = ⌊(m-1)/2⌋).  ``dr`` holds the kept pairs'
    displacements as ``(3, pairs)`` axis rows.

    Rows 1..S of one ``(R, S+1, 2m)`` buffer hold ``[F_k | F_k]``, block
    k's force on each owner column, laid end to end twice: each axis's
    forces are multiplied straight into the right half, and only its
    last S columns, all the skewed view below reads of the left half,
    are copied there.  An add reduction over k gives the owner sums,
    kept in row 0's right half; a subtract reduction over the skewed
    view whose row k reads ``F_k[(j-k) mod m]`` then takes off the
    partner terms.  A reduction over a non-inner axis adds row by row,
    in order.  Columns outside the owner range and pairs of two fixed
    atoms are +0.0 entries, which leave every sum as it was: a sum
    starts at +0.0 and ``forces_out`` never holds -0.0."""
    n_runs = len(charged) // m
    shifts = (m - 1) // 2
    lo, hi, half_hi = plan.cols
    blocks = shifts * (hi - lo)
    buf = np.zeros((n_runs, shifts + 1, 2 * m))
    run, row, elem = buf.strides
    ring = buf[:, 1:]
    owned = buf[:, 0, m:]
    # partners[r, k, j] = F_k[(j - k) mod m]; row 0 is the owner sums
    partners = as_strided(
        buf[:, :, m:],
        shape=(n_runs, shifts + 1, m),
        strides=(run, row - elem, elem),
        writeable=False,
    )
    blocked = (n_runs, shifts, hi - lo)
    full = None if plan.keep is None else np.zeros((n_runs, plan.width))
    coef = coef.reshape(n_runs, -1)
    scratch = scratch.reshape(n_runs, -1)
    for axis in range(3):
        d = dr[axis].reshape(n_runs, -1)
        if full is None:
            np.multiply(
                coef[:, :blocks].reshape(blocked),
                d[:, :blocks].reshape(blocked),
                out=ring[:, :, m + lo:m + hi],
            )
            half = np.multiply(
                coef[:, blocks:], d[:, blocks:], out=scratch[:, blocks:]
            )
        else:
            full[:, plan.keep] = np.multiply(coef, d, out=scratch)
            ring[:, :, m + lo:m + hi] = full[:, :blocks].reshape(blocked)
            half = full[:, blocks:]
        ring[:, :, m - shifts:m] = ring[:, :, 2 * m - shifts:]
        np.add.reduce(ring[:, :, m:], axis=1, out=owned)
        owned[:, lo:half_hi] += half
        total = np.subtract.reduce(partners, axis=1)
        total[:, m // 2 + lo:m // 2 + half_hi] -= half
        forces_out[charged, axis] += total.ravel()


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
        self,
        charged: np.ndarray,
        q: np.ndarray,
        movable: np.ndarray,
        n: int,
        n_runs: int,
    ) -> _RingPlan:
        """The (cached) plan of the ring over one run's ``charged``
        atoms, repeated over ``n_runs`` runs of ``n`` atoms whose
        charged atoms carry the ``(n_runs, m)`` charges ``q``."""
        key = (
            n, n_runs, charged.tobytes(), movable[charged].tobytes(),
            q.tobytes(),
        )
        cache = self._plans
        if key in cache:
            cache.move_to_end(key)
            return cache[key]
        m = len(charged)
        lo, hi = 0, m
        if self.owner_range is not None:
            lo, hi = np.searchsorted(charged, self.owner_range).tolist()
        half_hi = min(hi, m // 2) if m % 2 == 0 else lo
        cols = (lo, hi, half_hi)
        shifts = max((m - 1) // 2, 0)
        blocks = shifts * (hi - lo)
        mov = movable[charged][None]
        keep = np.empty((1, blocks + max(half_hi - lo, 0)), dtype=bool)
        _ring(np.logical_or, mov, mov, cols, keep)
        keep = keep[0]
        qq = np.empty((n_runs, len(keep)))
        _ring(np.multiply, COULOMB_K * q, q, cols, qq)
        # pairs each owner column keeps: one per block, one on the half
        # ring, less the pairs of two fixed atoms
        owns = np.zeros(m)
        owns[lo:hi] = keep[:blocks].reshape(shifts, hi - lo).sum(axis=0)
        owns[lo:half_hi] += keep[blocks:]
        per_atom = np.zeros((n_runs, n))
        per_atom[:, charged] = owns
        every = keep.all()
        plan = _RingPlan(
            cols=cols,
            width=len(keep),
            keep=None if every else keep,
            terms=int(keep.sum()),
            qq=(qq if every else qq[:, keep]).ravel(),
            per_atom=per_atom,
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
        m = len(charged) // n_runs  # every run shares the charged layout
        q = system.charges[charged].reshape(n_runs, m)
        plan = self._plan(charged[:m], q, system.movable, n, n_runs)
        if not plan.terms:
            return ForceColumns.empty(n_runs, n)
        # axis-major rows: row k·R + r is run r's charged coordinates
        # on axis k, so one ring pass forms every axis's displacements
        pos = system.positions[charged].T.reshape(3 * n_runs, m)
        # the displacements, r² and r share one block: a freed block
        # this large keeps the heap mapped between calls (glibc trims
        # only free space beyond twice the largest block it has freed),
        # so a steady call touches no fresh pages
        pairs, kept = n_runs * plan.width, n_runs * plan.terms
        work = np.empty(3 * pairs + 2 * kept)
        dr = work[:3 * pairs].reshape(3 * n_runs, plan.width)
        r2, r = work[3 * pairs:].reshape(2, kept)
        _ring(np.subtract, pos, pos, plan.cols, dr)
        if plan.keep is not None:
            dr = dr[:, plan.keep]
        dr = axis_displacements(boundary, dr.reshape(3, kept))
        dot3(dr, dr, out=r2, tmp=r)
        np.maximum(r2, self.min_distance**2, out=r2)
        np.sqrt(r2, out=r)
        # F/r = qq / (r2·r), in r2's buffer
        coef = np.divide(plan.qq, np.multiply(r2, r, out=r2), out=r2)
        energy = segment_sums(
            np.divide(plan.qq, r, out=r), [plan.terms] * n_runs
        )
        _scatter_ring(forces_out, charged, coef, dr, plan, m, scratch=r)
        terms = np.full(n_runs, plan.terms)
        return ForceColumns(
            energy=energy,
            terms=terms,
            per_atom_work=plan.per_atom.copy(),
            flops=FLOPS_PER_PAIR * terms,
            bytes_irregular=np.zeros(n_runs),
            bytes_regular=np.full(n_runs, REGULAR_BYTES_PER_ATOM * m),
        )
