"""Force interface and work accounting.

Every force computes real physics *and* reports what the computation
cost in machine terms: how many pair/bond terms were evaluated, an
estimate of floating-point operations, how many bytes were gathered
irregularly (through an index indirection, the cache-hostile pattern)
versus streamed linearly, and how the work distributes over atoms.
The per-atom distribution follows the ownership convention that causes
the paper's load imbalance: the lower-indexed atom of a pair owns it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.md.boundary import Boundary
from repro.md.neighbors import NeighborList
from repro.md.system import AtomSystem


@dataclass
class ForceResult:
    """Physics + work counts from one force evaluation."""

    energy: float
    terms: int
    per_atom_work: np.ndarray
    flops: float
    bytes_irregular: float
    bytes_regular: float

    @staticmethod
    def empty(n_atoms: int) -> "ForceResult":
        """A zero result (no terms evaluated) over ``n_atoms`` atoms."""
        return ForceResult(0.0, 0, np.zeros(n_atoms), 0.0, 0.0, 0.0)


@dataclass
class ForceColumns:
    """The results of one many-run force evaluation as per-run columns:
    one ``(R,)`` array per :class:`ForceResult` field (``terms`` is
    int64, the rest float64) and the ``(R, N)`` per-atom work, whose
    row ``r`` is run ``r``'s."""

    energy: np.ndarray
    terms: np.ndarray
    per_atom_work: np.ndarray
    flops: np.ndarray
    bytes_irregular: np.ndarray
    bytes_regular: np.ndarray

    @staticmethod
    def empty(n_runs: int, n_atoms: int) -> "ForceColumns":
        """Zero columns (no terms evaluated) for ``n_runs`` runs."""
        zero = np.zeros(n_runs)
        return ForceColumns(
            zero, np.zeros(n_runs, dtype=np.int64),
            np.zeros((n_runs, n_atoms)), zero, zero, zero,
        )

    def __add__(self, other: "ForceColumns") -> "ForceColumns":
        """Field-by-field elementwise sums: each float64 add is the
        same IEEE add as a Python ``+=`` of the runs' scalars."""
        return ForceColumns(*(
            getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        ))

    def results(self) -> List[ForceResult]:
        """One :class:`ForceResult` per run, holding Python ``int`` and
        ``float`` scalars and its row of the per-atom work."""
        return [
            ForceResult(*row)
            for row in zip(
                self.energy.tolist(), self.terms.tolist(),
                self.per_atom_work, self.flops.tolist(),
                self.bytes_irregular.tolist(), self.bytes_regular.tolist(),
            )
        ]


#: the ``(owner, e_terms)`` of a kernel call in which no term survived
NO_TERMS = (np.zeros(0, dtype=np.int64), np.zeros(0))


#: read-only constant-weight buffers for :func:`owner_counts`, keyed by
#: weight value and grown geometrically — shared across all kernels so
#: per-step ownership accounting allocates exactly one fresh array (the
#: bincount output) instead of a count array plus an astype copy
_WEIGHT_POOL: Dict[float, np.ndarray] = {}


def owner_counts(owner: np.ndarray, n_atoms: int, weight: float = 1.0) -> np.ndarray:
    """Per-atom work tally: ``weight`` per term, summed over the owning
    atom indices in ``owner``, as a float64 array of length ``n_atoms``.

    Equivalent to ``np.bincount(owner, minlength=n).astype(np.float64)
    * weight`` but computed with a pooled constant ``weights=`` buffer,
    so only the output array is allocated.  Bitwise-identical for the
    small integer weights the kernels use (a sum of ``k`` copies of
    1.0/2.0/3.0 is exact in float64 for any realistic ``k``)."""
    m = len(owner)
    buf = _WEIGHT_POOL.get(weight)
    if buf is None or len(buf) < m:
        size = max(m, 1024, 0 if buf is None else 2 * len(buf))
        buf = np.full(size, weight, dtype=np.float64)
        buf.setflags(write=False)
        _WEIGHT_POOL[weight] = buf
    return np.bincount(owner, weights=buf[:m], minlength=n_atoms)


def segment_sums(e_terms: np.ndarray, seg: List[int]) -> np.ndarray:
    """Per-run energy, as an ``(R,)`` float64 array: the sum of each
    run's contiguous slice of a run-major term array, ``seg[r]`` terms
    for run ``r``.

    When every run has the same term count (no rebuild divergence —
    the common case), one ``reshape(R, m).sum(axis=1)`` replaces R
    separate ``.sum()`` dispatches.  Bit-identical by construction:
    reducing a C-contiguous 2-D array over its last axis applies the
    same pairwise summation to each row that ``row.sum()`` applies to
    the identical slice of memory.
    """
    m = seg[0] if seg else 0
    if m and all(v == m for v in seg):
        return e_terms.reshape(len(seg), m).sum(axis=1)
    offs = np.concatenate(([0], np.cumsum(seg))).tolist()
    out = np.zeros(len(seg))
    for r, n in enumerate(seg):
        if n:
            out[r] = e_terms[offs[r]:offs[r + 1]].sum()
    return out


def split_runs(
    owner: np.ndarray,
    e_terms: np.ndarray,
    n_runs: int,
    n_atoms: int,
    weight: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut the terms of a run-major ``n_runs``-run kernel call into
    runs: the per-run term counts and energies as columns, and the
    ``(n_runs, n_atoms)`` per-atom work (``weight`` per owned term).
    Row ``r`` of the work array pickles exactly like a one-run tally
    of run ``r``'s terms."""
    counts = owner_counts(owner, n_runs * n_atoms, weight)
    if n_runs == 1:
        seg = [len(owner)]
    else:
        seg = np.bincount(owner // n_atoms, minlength=n_runs).tolist()
    return (
        np.array(seg, dtype=np.int64),
        segment_sums(e_terms, seg),
        counts.reshape(n_runs, n_atoms),
    )


def scatter_forces(forces_out, indices, vectors) -> None:
    """:func:`scatter_axes` of ``(P, 3)`` row-per-term force blocks."""
    scatter_axes(forces_out, indices, [v.T for v in vectors])


def scatter_axes(forces_out, indices, vectors) -> None:
    """Accumulate per-term force vectors onto their atoms.

    ``indices``/``vectors`` are sequences of equal-length blocks — one
    block per role in the term (e.g. ``(i, j)`` with ``(fvec, -fvec)``
    for a pair force, four blocks for a torsion); a vector block is a
    ``(3, P)`` array whose row k holds axis k.  Equivalent to one
    ``np.add.at`` per block, but runs as a single ``np.bincount`` per
    axis over the concatenated blocks: per atom the contributions
    accumulate in exactly the same sequence (block by block, term
    order within each block), so the sums are bitwise identical while
    avoiding ``ufunc.at``'s per-element dispatch — the difference
    between a one-run and a many-run scatter being a wash or a ~6x
    win.  The same call on the run-major ``(n_runs·n, 3)`` view of
    several runs reproduces every run's one-run scatter exactly,
    because run-offset indices keep each run's additions in their own
    bins and in the same order."""
    idx = indices[0] if len(indices) == 1 else np.concatenate(indices)
    vec = vectors[0] if len(vectors) == 1 else np.concatenate(vectors, 1)
    n = len(forces_out)
    for k in range(3):
        forces_out[:, k] += np.bincount(idx, weights=vec[k], minlength=n)


class Force(abc.ABC):
    """One interatomic interaction family."""

    #: short identifier used in phase reports ("lj", "coulomb", "bond"...)
    name: str = "force"

    def compute(
        self,
        system: AtomSystem,
        boundary: Boundary,
        neighbors: Optional[NeighborList],
        forces_out: np.ndarray,
    ) -> ForceResult:
        """Accumulate forces (eV/Å) into ``forces_out`` and return the
        result record: the one-run case of :meth:`compute_runs`.  Must
        be additive: callers zero the buffer."""
        return self.compute_runs(
            system, boundary, neighbors, forces_out, 1
        ).results()[0]

    @abc.abstractmethod
    def compute_runs(
        self,
        system: AtomSystem,
        boundary: Boundary,
        neighbors: Optional[NeighborList],
        forces_out: np.ndarray,
        n_runs: int,
    ) -> ForceColumns:
        """Accumulate the forces of ``n_runs`` runs of one system laid
        out run-major in ``system`` (run ``r`` owns atoms
        ``[r·n, (r+1)·n)``; several runs use a copy from
        :meth:`replicate`) and return their results as columns, row
        ``r`` exactly what run ``r`` alone gives."""

    def replicate(self, n_runs: int, n_atoms: int) -> "Force":
        """A copy for :meth:`compute_runs` over ``n_runs`` run-major
        copies of an ``n_atoms``-atom system: stored atom indices are
        repeated with run offsets and per-term parameters tiled.
        Forces that store no atom indices return themselves."""
        return self

    def uses_neighbor_list(self) -> bool:
        """Whether this force consumes the Verlet list (phase-fusion
        candidates)."""
        return False

    def restrict(self, lo: int, hi: int) -> "Force":
        """A copy that evaluates only the terms *owned* by atoms in
        [lo, hi) — the parallel decomposition hook.  Restricted copies
        of one force over a partition of [0, n_atoms) must together
        produce exactly the full force and energy."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support owner restriction"
        )

    def remap(self, mapping: np.ndarray) -> "Force":
        """A copy with every stored atom index ``i`` replaced by
        ``mapping[i]`` — the companion of :meth:`AtomSystem.permute`
        for inspector/executor data reordering.  Forces that store no
        atom indices return themselves."""
        return self
