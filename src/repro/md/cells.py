"""Linked-cell spatial decomposition (Hockney & Eastwood).

"We use a linked-cell algorithm that keeps the complexity of the
neighbor-finding algorithm to O(N).  Conceptually, the linked-cell
approach superimposes a three-dimensional grid over the simulation
space.  The grid is sized such that the neighbors of any given atom
must fall within the grid box containing the atom or in one of the grid
boxes adjacent to that box." (§II-B)

The grid produces *candidate pairs* (i < j) from each cell against
itself and a half stencil of 13 neighbor cells, so each unordered cell
pair is visited once.  Distance filtering happens in the caller
(:mod:`repro.md.neighbors`).

One grid can hold several runs of the same box at once: the runs'
atoms are concatenated run-major, run ``r``'s cells get the ids
``[r·n_cells, (r+1)·n_cells)``, and a stencil never leaves its run, so
one pass yields every run's candidates (and only pairs within a run).
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: half stencil: (0,0,0) handled separately; these 13 offsets cover each
#: unordered adjacent-cell pair exactly once
_HALF_STENCIL = [
    off
    for off in itertools.product((-1, 0, 1), repeat=3)
    if off > (0, 0, 0)
]


class LinkedCellGrid:
    """Uniform grid over the box with cells >= ``cell_size`` on a side."""

    def __init__(
        self, box: np.ndarray, cell_size: float, periodic: bool = False
    ):
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive: {cell_size}")
        self.box = np.asarray(box, dtype=np.float64)
        if np.any(self.box <= 0):
            raise ValueError(f"box lengths must be positive: {self.box}")
        self.periodic = periodic
        self.dims = np.maximum(
            1, (self.box / cell_size).astype(np.int64)
        )
        if periodic and np.any((self.dims < 3) & (self.dims > 1)):
            # with <3 cells per periodic axis the stencil would visit a
            # cell twice; collapse such axes to a single cell instead
            self.dims = np.where(self.dims < 3, 1, self.dims)
        self.cell_size = self.box / self.dims
        self.n_cells = int(np.prod(self.dims))
        # build state (populated by build())
        self._order: np.ndarray = np.zeros(0, dtype=np.int64)
        self._starts: np.ndarray = np.zeros(1, dtype=np.int64)
        self._built = False
        #: candidate pairs examined by the last pair sweep (work count)
        self.last_candidates = 0

    # -- coordinate maps -----------------------------------------------------

    def cell_coords(self, positions: np.ndarray) -> np.ndarray:
        """(N, 3) integer cell coordinates, clipped into the grid."""
        coords = np.floor(positions / self.cell_size).astype(np.int64)
        return np.clip(coords, 0, self.dims - 1)

    def linear_ids(self, coords: np.ndarray) -> np.ndarray:
        """Flatten (x, y, z) cell coordinates to scalar cell ids."""
        d = self.dims
        return (coords[:, 0] * d[1] + coords[:, 1]) * d[2] + coords[:, 2]

    # -- population ------------------------------------------------------------

    def build(
        self,
        positions: np.ndarray,
        run_sizes: Optional[Sequence[int]] = None,
    ) -> None:
        """Repopulate the cells (counting sort by cell id).

        ``positions`` holds the runs' atoms concatenated run-major,
        ``run_sizes[r]`` of them for run ``r`` (default: one run), and
        run ``r``'s atoms land in cells offset by ``r·n_cells``."""
        ids = self.linear_ids(self.cell_coords(positions))
        n_runs = 1
        if run_sizes is not None:
            n_runs = len(run_sizes)
            ids += self.n_cells * np.repeat(
                np.arange(n_runs, dtype=np.int64), run_sizes
            )
        self._order = np.argsort(ids, kind="stable")
        sorted_ids = ids[self._order]
        self._starts = np.searchsorted(
            sorted_ids, np.arange(n_runs * self.n_cells + 1)
        )
        self._built = True

    def atoms_in_cell(self, cell_id: int) -> np.ndarray:
        """Atom indices currently in one cell (requires build()); with
        several runs, ``cell_id`` is the run-offset id."""
        if not self._built:
            raise RuntimeError("grid not built")
        return self._order[self._starts[cell_id] : self._starts[cell_id + 1]]

    def occupancy(self) -> np.ndarray:
        """Atoms per cell (diagnostics / load statistics)."""
        if not self._built:
            raise RuntimeError("grid not built")
        return np.diff(self._starts)

    # -- pair generation ---------------------------------------------------------

    def candidate_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """All (i, j) candidate pairs with i < j from adjacent cells.

        Each unordered pair of atoms in the same or adjacent cells
        appears exactly once.  Returns two int arrays.

        Fully vectorized: one CSR range-expansion per stencil offset
        instead of a Python loop over cells, so cost scales with the
        number of *atoms and emitted pairs*, not the number of grid
        cells — dilute systems (huge, mostly-empty grids) previously
        paid thousands of tiny numpy calls per build.  The caller
        (:func:`repro.md.neighbors.build_lists`) sorts the surviving
        pairs, so only the pair *set* is part of the contract, not the
        emission order.  With several runs the indices are into the
        run-major concatenation and every pair lies within one run.
        """
        if not self._built:
            raise RuntimeError("grid not built")
        d = self.dims
        starts = self._starts
        order = self._order
        n = len(order)
        empty = np.zeros(0, dtype=np.int64)
        if n == 0:
            self.last_candidates = 0
            return empty, empty.copy()
        # cell id / coords of every *sorted slot* (atoms grouped by cell);
        # coords are within the slot's run, whose first cell id is
        # ``run_base``
        cell_of_slot = np.repeat(
            np.arange(len(starts) - 1, dtype=np.int64), np.diff(starts)
        )
        local = cell_of_slot % self.n_cells
        run_base = cell_of_slot - local
        sx = local // (d[1] * d[2])
        sy = (local // d[2]) % d[1]
        sz = local % d[2]
        slots = np.arange(n, dtype=np.int64)

        def expand(first_slot, counts, src_slots):
            """CSR expansion: for each source slot, the target-slot
            range [first, first+count); returns (src, tgt) slot
            arrays."""
            total = int(counts.sum())
            if total == 0:
                return empty, empty
            firsts = np.repeat(first_slot, counts)
            shift = np.repeat(np.cumsum(counts) - counts, counts)
            tgt = firsts + (np.arange(total, dtype=np.int64) - shift)
            return np.repeat(src_slots, counts), tgt

        out_i: List[np.ndarray] = []
        out_j: List[np.ndarray] = []

        def emit(src, tgt, drop_self=False):
            pi, pj = order[src], order[tgt]
            if drop_self:
                keep = pi != pj
                pi, pj = pi[keep], pj[keep]
            # enforce i < j in *atom index* (ownership convention)
            swap = pi > pj
            out_i.append(np.where(swap, pj, pi))
            out_j.append(np.where(swap, pi, pj))

        # intra-cell pairs: slot p against the later slots of its cell
        src, tgt = expand(
            slots + 1, starts[cell_of_slot + 1] - slots - 1, slots
        )
        emit(src, tgt)

        # half-stencil neighbor cells
        for ox, oy, oz in _HALF_STENCIL:
            nx, ny, nz = sx + ox, sy + oy, sz + oz
            if self.periodic:
                nx, ny, nz = nx % d[0], ny % d[1], nz % d[2]
                a_slots = slots
            else:
                valid = (
                    (nx >= 0) & (ny >= 0) & (nz >= 0)
                    & (nx < d[0]) & (ny < d[1]) & (nz < d[2])
                )
                nx, ny, nz = nx[valid], ny[valid], nz[valid]
                a_slots = slots[valid]
            nid = run_base[a_slots] + (nx * d[1] + ny) * d[2] + nz
            if self.periodic:
                # wrapped offsets can land back on the source cell;
                # those pairs are the intra-cell ones, already emitted
                off_cell = nid != cell_of_slot[a_slots]
                nid, a_slots = nid[off_cell], a_slots[off_cell]
            counts = starts[nid + 1] - starts[nid]
            src, tgt = expand(starts[nid], counts, a_slots)
            # tiny periodic grids can wrap an atom onto itself
            emit(src, tgt, drop_self=self.periodic)

        i = np.concatenate(out_i)
        j = np.concatenate(out_j)
        if len(i) == 0:
            self.last_candidates = 0
            return empty, empty.copy()
        if self.periodic:
            # wrapping in tiny grids can still produce a cell *pair*
            # twice (once from each side); dedupe on the pair key
            key = i.astype(np.int64) * (int(j.max()) + 1) + j
            _, keep = np.unique(key, return_index=True)
            i, j = i[np.sort(keep)], j[np.sort(keep)]
        self.last_candidates = len(i)
        return i, j
