"""Verlet neighbor lists with displacement-triggered rebuilds.

"The generation of neighbor lists is done at the start of the
simulation and when any atom moves in any dimension by more than a
threshold value." (§II-B)

The list stores pairs (i, j) with i < j — the paper's ownership rule:
"The atom index number is used to compute the force between a pair of
atoms only once.  When the lower indexed atom is processed, the force
is computed and stored for both atoms.  Thus, lower numbered atoms in
general require more computation than higher indexed atoms."  The CSR
view (:meth:`NeighborList.per_atom_counts`) exposes exactly that
asymmetric per-atom work for the load-balance experiments.

:func:`build_lists` rebuilds many runs' lists at once: runs that share
a box, periodicity, cutoff and skin go through one stacked linked-cell
pass, one distance filter and one sort.  :meth:`NeighborList.build` is
its one-run case, so there is one build path.

Pair kernels read coordinates one axis at a time:
:func:`pair_displacements` gathers ``positions[i] - positions[j]`` as a
``(3, P)`` array, row k holding axis k, with three 1-D ``take``s
instead of one 2-D fancy index, and :func:`dot3` sums per-axis
products in the order ``np.einsum("ij,ij->i")`` adds the three lanes
of a row, so the columns give the same bits as the rows did.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.md.boundary import Boundary
from repro.md.cells import LinkedCellGrid

#: source of :attr:`NeighborList.generation`: one number per build or
#: splice across every list of the process, so a table keyed on it can
#: never be mistaken for another list's or an older build's
_GENERATIONS = itertools.count(1)


def pair_displacements(
    positions: np.ndarray, i: np.ndarray, j: np.ndarray, boundary: Boundary
) -> np.ndarray:
    """``boundary``'s displacements ``positions[i] - positions[j]`` of
    the pairs ``(i, j)``, as a ``(3, P)`` array whose row k is axis k:
    each axis is one contiguous column gathered by two 1-D ``take``s."""
    d = np.empty((3, len(i)))
    for k in range(3):
        col = positions[:, k]
        np.subtract(col.take(i), col.take(j), out=d[k])
    return axis_displacements(boundary, d)


def axis_displacements(boundary: Boundary, d: np.ndarray) -> np.ndarray:
    """``boundary.displacement`` of ``(3, P)`` axis rows: the boundary
    maps ``(P, 3)`` rows elementwise, so the transposed view gives the
    same bits and the result keeps the row-per-axis layout."""
    return boundary.displacement(d.T).T


def dot3(
    a: np.ndarray,
    b: np.ndarray,
    out: Optional[np.ndarray] = None,
    tmp: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-pair dot products of ``(3, P)`` axis rows, ``(a0·b0 + a2·b2)
    + a1·b1``: the order in which ``np.einsum("ij,ij->i")`` sums a
    C-contiguous ``(P, 3)`` row (numpy's baseline SIMD loads a row as
    lanes [0, 1] and [2, 0] and adds the lanes at the end), so the
    result is that einsum's bit for bit.  ``out`` and ``tmp`` (P
    floats each) may be given for the result and a product."""
    out = np.multiply(a[0], b[0], out=out)
    tmp = np.multiply(a[2], b[2], out=tmp)
    out += tmp
    out += np.multiply(a[1], b[1], out=tmp)
    if a is not b:
        # einsum's lanes start from +0.0, so its sums never end at
        # -0.0; a sum of squares never does either
        out += 0.0
    return out


class NeighborList:
    """Pair list within ``cutoff``; valid until any atom moves > skin/2.

    Parameters
    ----------
    cutoff:
        Interaction cutoff (Å).  Pairs are collected to
        ``cutoff + skin`` so the list survives small motion.
    skin:
        Verlet skin thickness (Å).
    """

    def __init__(self, cutoff: float, skin: float = 0.8):
        if cutoff <= 0 or skin < 0:
            raise ValueError(f"bad cutoff/skin: {cutoff}/{skin}")
        self.cutoff = cutoff
        self.skin = skin
        self.pairs_i = np.zeros(0, dtype=np.int64)
        self.pairs_j = np.zeros(0, dtype=np.int64)
        self._ref_positions: Optional[np.ndarray] = None
        self.rebuild_count = 0
        self.last_candidates = 0
        #: changes with every build (and every splice of a run-offset
        #: list), never repeating: per-pair tables derived from the list
        #: key on it
        self.generation = 0

    def _set_pairs(self, pairs_i: np.ndarray, pairs_j: np.ndarray) -> None:
        """Install a new pair list under a fresh :attr:`generation`."""
        self.pairs_i = pairs_i
        self.pairs_j = pairs_j
        self.generation = next(_GENERATIONS)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs_i)

    @property
    def built(self) -> bool:
        return self._ref_positions is not None

    def needs_rebuild(self, positions: np.ndarray) -> bool:
        """Phase 2 of the timestep: neighbor-list validity check."""
        if self._ref_positions is None:
            return True
        if len(positions) != len(self._ref_positions):
            return True
        # "moves in any dimension by more than a threshold value"
        disp = np.abs(positions - self._ref_positions).max()
        return bool(disp > self.skin / 2.0)

    def build(self, positions: np.ndarray, boundary: Boundary) -> None:
        """Phase 3: repopulate the linked cells and rebuild the list."""
        build_lists([self], [positions], [boundary])

    def per_atom_counts(self, n_atoms: int) -> np.ndarray:
        """Pairs *owned* by each atom (the lower index owns the pair) —
        the per-atom work profile of the LJ phase."""
        return np.bincount(self.pairs_i, minlength=n_atoms)

    def neighbors_of(self, atom: int) -> np.ndarray:
        """All neighbors of one atom (both ownership directions)."""
        fwd = self.pairs_j[self.pairs_i == atom]
        bwd = self.pairs_i[self.pairs_j == atom]
        return np.concatenate([fwd, bwd])


def build_lists(
    nlists: Sequence[NeighborList],
    positions: Sequence[np.ndarray],
    boundaries: Sequence[Boundary],
) -> None:
    """Rebuild ``nlists[r]`` from run ``r``'s ``positions[r]`` inside
    ``boundaries[r]``, for every run: one stacked linked-cell pass per
    group of runs with the same boundary box, periodicity, cutoff and
    skin.  Each list ends exactly as a build of its run alone would
    leave it: the same pairs in the same order, the same
    ``last_candidates``."""
    groups: Dict[tuple, List[int]] = {}
    for r, (nl, boundary) in enumerate(zip(nlists, boundaries)):
        key = (
            type(boundary), boundary.box.tobytes(), boundary.periodic,
            nl.cutoff, nl.skin,
        )
        groups.setdefault(key, []).append(r)
    for runs in groups.values():
        _build_group(
            [nlists[r] for r in runs],
            [positions[r] for r in runs],
            boundaries[runs[0]],
        )


def _build_group(
    nlists: Sequence[NeighborList],
    positions: Sequence[np.ndarray],
    boundary: Boundary,
) -> None:
    """One linked-cell pass, filter and sort for runs sharing
    ``boundary`` and their lists' cutoff and skin."""
    reach = nlists[0].cutoff + nlists[0].skin
    sizes = [len(p) for p in positions]
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    # one copy: the candidates' coordinates and every run's reference
    flat = np.concatenate(positions)
    grid = LinkedCellGrid(boundary.box, reach, periodic=boundary.periodic)
    grid.build(flat, sizes)
    ci, cj = grid.candidate_pairs()
    # every pair lies within one run, so its run follows from i
    run_of = np.repeat(np.arange(len(sizes)), sizes)
    candidates = np.bincount(run_of[ci], minlength=len(sizes))
    # sort by owner for CSR-style per-atom iteration; the global sort
    # leaves each run's pairs contiguous and in run order.  Pairs are
    # unique, so sorting the packed key i·n + j orders them exactly as
    # a lexsort on (i, j) would
    n = int(offsets[-1])
    d = pair_displacements(flat, ci, cj, boundary)
    key = (ci * n + cj)[dot3(d, d) <= reach * reach]
    key.sort()
    ci, cj = np.divmod(key, n)
    cuts = np.searchsorted(ci, offsets).tolist()
    for r, nl in enumerate(nlists):
        lo, hi, base = cuts[r], cuts[r + 1], offsets[r]
        nl._set_pairs(ci[lo:hi] - base, cj[lo:hi] - base)
        nl._ref_positions = flat[offsets[r]:offsets[r + 1]]
        nl.last_candidates = int(candidates[r])
        nl.rebuild_count += 1
