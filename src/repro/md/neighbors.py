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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.md.boundary import Boundary
from repro.md.cells import LinkedCellGrid


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

    def pairs_within(
        self, positions: np.ndarray, boundary: Boundary
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pairs currently inside the true cutoff, with displacement
        vectors (i-j).  Returns (i, j, dr)."""
        if not self.built:
            raise RuntimeError("neighbor list not built")
        dr = positions[self.pairs_i]
        dr -= positions[self.pairs_j]
        dr = boundary.displacement(dr)
        r2 = np.einsum("ij,ij->i", dr, dr)
        keep = r2 <= self.cutoff * self.cutoff
        if keep.all():  # skip the no-op filtered copies
            return self.pairs_i, self.pairs_j, dr
        return self.pairs_i[keep], self.pairs_j[keep], dr[keep]


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
    if len(ci):
        dr = boundary.displacement(flat[ci] - flat[cj])
        r2 = np.einsum("ij,ij->i", dr, dr)
        keep = r2 <= reach * reach
        ci, cj = ci[keep], cj[keep]
    # sort by owner for CSR-style per-atom iteration; the global sort
    # leaves each run's pairs contiguous and in run order
    order = np.lexsort((cj, ci))
    ci, cj = ci[order], cj[order]
    cuts = np.searchsorted(ci, offsets).tolist()
    shift = offsets[run_of[ci]]
    ci -= shift
    cj -= shift
    for r, nl in enumerate(nlists):
        lo, hi = cuts[r], cuts[r + 1]
        nl.pairs_i = ci[lo:hi]
        nl.pairs_j = cj[lo:hi]
        nl._ref_positions = flat[offsets[r]:offsets[r + 1]]
        nl.last_candidates = int(candidates[r])
        nl.rebuild_count += 1
