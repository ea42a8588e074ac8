"""Bonded forces: radial (2-atom), angular (3-atom), torsional (4-atom).

"Bond force equations are more complex than the other types, require
more floating point operations, can involve up to four atoms, and
exhibit indirect and therefore irregular indexing into the atom array."
(§II-B)  "The forces between the bonded atoms are computed in the order
the bonds appear in the bond list."

Work accounting: every term is owned by its first atom (the bond-list
parallelization partitions over bonds, and attribution to the first
atom reproduces the skewed per-atom profile).  All bytes are marked
irregular — bond endpoints are scattered through the atom array.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.md.boundary import Boundary
from repro.md.forces.base import (
    Force,
    ForceColumns,
    scatter_axes,
    split_runs,
)
from repro.md.neighbors import NeighborList, dot3, pair_displacements
from repro.md.system import AtomSystem

RADIAL_FLOPS = 250.0
ANGULAR_FLOPS = 550.0
TORSIONAL_FLOPS = 1100.0
LINE_BYTES = 64.0


def _as_index_array(arr, width: int, name: str) -> np.ndarray:
    out = np.asarray(arr, dtype=np.int64)
    if out.ndim != 2 or out.shape[1] != width:
        raise ValueError(f"{name} must be (M, {width}), got {out.shape}")
    return out


def _per_term(value, m: int, name: str) -> np.ndarray:
    out = np.broadcast_to(np.asarray(value, dtype=np.float64), (m,)).copy()
    if np.any(out < 0):
        raise ValueError(f"{name} must be non-negative")
    return out


class _BondedForce(Force):
    """What the three bonded kernels share: a term list stored as an
    ``(M, width)`` atom-index array plus per-term parameter arrays
    (named by ``_fields``, in constructor order), each term owned by
    its first atom."""

    #: constructor-order attribute names: the index array, then the
    #: per-term parameters
    _fields: tuple = ()
    #: cost-model constants per term
    flops_per_term: float = 0.0
    lines_per_term: int = 0
    #: per-atom work weight of one owned term
    work_weight: float = 1.0

    def _with(self, index: np.ndarray, keep=slice(None)) -> "_BondedForce":
        """A copy over ``index`` with the parameters cut to ``keep``."""
        params = (getattr(self, name)[keep] for name in self._fields[1:])
        return type(self)(index, *params)

    @property
    def _index(self) -> np.ndarray:
        return getattr(self, self._fields[0])

    def restrict(self, lo: int, hi: int) -> "_BondedForce":
        """Copy with only the terms owned (first atom) in [lo, hi)."""
        keep = (self._index[:, 0] >= lo) & (self._index[:, 0] < hi)
        return self._with(self._index[keep], keep)

    def remap(self, mapping: np.ndarray) -> "_BondedForce":
        """Copy with the term atoms renumbered through ``mapping``."""
        return self._with(np.asarray(mapping)[self._index])

    def replicate(self, n_runs: int, n_atoms: int) -> "_BondedForce":
        """Copy holding every run's terms with run-offset atoms."""
        index = np.concatenate(
            [self._index + r * n_atoms for r in range(n_runs)]
        )
        params = (np.tile(getattr(self, name), n_runs)
                  for name in self._fields[1:])
        return type(self)(index, *params)

    def compute_runs(
        self,
        system: AtomSystem,
        boundary: Boundary,
        neighbors: Optional[NeighborList],
        forces_out: np.ndarray,
        n_runs: int,
    ) -> ForceColumns:
        n = system.n_atoms // n_runs
        if len(self._index) == 0:
            return ForceColumns.empty(n_runs, n)
        owner, e_terms = self._bundle(system, boundary, forces_out)
        terms, energy, per_atom = split_runs(
            owner, e_terms, n_runs, n, weight=self.work_weight
        )
        return ForceColumns(
            energy=energy,
            terms=terms,
            per_atom_work=per_atom,
            flops=self.flops_per_term * terms,
            bytes_irregular=self.lines_per_term * LINE_BYTES * terms,
            bytes_regular=np.zeros(n_runs),
        )


class RadialBondForce(_BondedForce):
    """Harmonic stretch: U = ½ k (r - r0)²."""

    name = "bond-radial"
    _fields = ("bonds", "k", "r0")
    flops_per_term = RADIAL_FLOPS
    lines_per_term = 2

    def __init__(self, bonds, k, r0):
        self.bonds = _as_index_array(bonds, 2, "bonds")
        m = len(self.bonds)
        self.k = _per_term(k, m, "k")
        self.r0 = _per_term(r0, m, "r0")

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)

    def _bundle(self, system: AtomSystem, boundary: Boundary, forces_out):
        """Term math + scatter; returns ``(owner, e_terms)``.  Indexes
        only through ``self.bonds``, so a :meth:`replicate` copy serves
        every run of a run-major system in one call."""
        a, b = self.bonds[:, 0], self.bonds[:, 1]
        dr = pair_displacements(system.positions, a, b, boundary)
        r = np.sqrt(dot3(dr, dr))
        r_safe = np.where(r > 1e-12, r, 1.0)
        stretch = r - self.r0
        # F_a = -k (r - r0) r̂
        fvec = (-self.k * stretch / r_safe) * dr
        scatter_axes(forces_out, (a, b), (fvec, -fvec))
        return a, 0.5 * self.k * stretch * stretch


class AngularBondForce(_BondedForce):
    """Harmonic bend: U = ½ k (θ - θ0)², vertex is the middle atom."""

    name = "bond-angular"
    _fields = ("triples", "k", "theta0")
    flops_per_term = ANGULAR_FLOPS
    lines_per_term = 3
    work_weight = 2.0

    def __init__(self, triples, k, theta0):
        self.triples = _as_index_array(triples, 3, "triples")
        m = len(self.triples)
        self.k = _per_term(k, m, "k")
        self.theta0 = np.broadcast_to(
            np.asarray(theta0, dtype=np.float64), (m,)
        ).copy()

    @property
    def n_angles(self) -> int:
        return len(self.triples)

    def _bundle(self, system: AtomSystem, boundary: Boundary, forces_out):
        """Term math + scatter; returns ``(owner, e_terms)`` (see
        :meth:`RadialBondForce._bundle`)."""
        a = self.triples[:, 0]
        b = self.triples[:, 1]  # vertex
        c = self.triples[:, 2]
        u = pair_displacements(system.positions, a, b, boundary)
        v = pair_displacements(system.positions, c, b, boundary)
        lu = np.sqrt(dot3(u, u))
        lv = np.sqrt(dot3(v, v))
        lu = np.where(lu > 1e-12, lu, 1.0)
        lv = np.where(lv > 1e-12, lv, 1.0)
        cos_t = dot3(u, v) / (lu * lv)
        np.clip(cos_t, -1.0, 1.0, out=cos_t)
        theta = np.arccos(cos_t)
        sin_t = np.sqrt(np.maximum(1.0 - cos_t * cos_t, 1e-12))
        du = self.k * (theta - self.theta0)  # dU/dθ
        # ∂cosθ/∂a and ∂cosθ/∂c
        dcos_da = v / (lu * lv) - (cos_t / (lu * lu)) * u
        dcos_dc = u / (lu * lv) - (cos_t / (lv * lv)) * v
        # F = -∂U/∂x = (dU/dθ / sinθ) ∂cosθ/∂x
        fa = (du / sin_t) * dcos_da
        fc = (du / sin_t) * dcos_dc
        fb = -fa - fc
        scatter_axes(forces_out, (a, b, c), (fa, fb, fc))
        dtheta = theta - self.theta0
        return a, 0.5 * self.k * dtheta * dtheta


class TorsionalBondForce(_BondedForce):
    """Cosine dihedral: U = ½ V (1 + cos(n φ - φ0)) over atom quads."""

    name = "bond-torsional"
    _fields = ("quads", "v", "periodicity", "phi0")
    flops_per_term = TORSIONAL_FLOPS
    lines_per_term = 4
    work_weight = 3.0

    def __init__(self, quads, v, periodicity=1, phi0=0.0):
        self.quads = _as_index_array(quads, 4, "quads")
        m = len(self.quads)
        self.v = _per_term(v, m, "v")
        self.periodicity = np.broadcast_to(
            np.asarray(periodicity, dtype=np.float64), (m,)
        ).copy()
        self.phi0 = np.broadcast_to(
            np.asarray(phi0, dtype=np.float64), (m,)
        ).copy()

    def _bundle(self, system: AtomSystem, boundary: Boundary, forces_out):
        """Term math + scatter; returns ``(owner, e_terms)`` (see
        :meth:`RadialBondForce._bundle`)."""
        pos = system.positions
        q = self.quads
        b1 = pair_displacements(pos, q[:, 1], q[:, 0], boundary)
        b2 = pair_displacements(pos, q[:, 2], q[:, 1], boundary)
        b3 = pair_displacements(pos, q[:, 3], q[:, 2], boundary)
        n1 = np.cross(b1, b2, axis=0)
        n2 = np.cross(b2, b3, axis=0)
        n1sq = dot3(n1, n1)
        n2sq = dot3(n2, n2)
        lb2 = np.sqrt(dot3(b2, b2))
        # near-collinear quads have |n|->0 and a 1/|n| force singularity;
        # treat them as torsion-free well before numerics explode
        ok = (n1sq > 1e-4) & (n2sq > 1e-4) & (lb2 > 1e-6)
        x = dot3(n1, n2)
        y = dot3(np.cross(n1, n2, axis=0), b2) / np.where(
            lb2 > 1e-12, lb2, 1.0
        )
        phi = np.arctan2(y, x)
        # dU/dφ = -½ V n sin(nφ - φ0)
        du = -0.5 * self.v * self.periodicity * np.sin(
            self.periodicity * phi - self.phi0
        )
        du = np.where(ok, du, 0.0)
        n1sq_s = np.where(ok, n1sq, 1.0)
        n2sq_s = np.where(ok, n2sq, 1.0)
        fa = (du * lb2 / n1sq_s) * n1
        fd = (-du * lb2 / n2sq_s) * n2
        lb2sq = np.where(ok, lb2 * lb2, 1.0)
        t1 = dot3(b1, b2) / lb2sq
        t2 = dot3(b3, b2) / lb2sq
        fb = -(1.0 + t1) * fa + t2 * fd
        fc = -(fa + fb + fd)  # net force is exactly zero
        scatter_axes(
            forces_out,
            (q[:, 0], q[:, 1], q[:, 2], q[:, 3]),
            (fa, fb, fc, fd),
        )
        e_terms = np.where(
            ok,
            0.5 * self.v * (1.0 + np.cos(self.periodicity * phi - self.phi0)),
            0.0,
        )
        return q[:, 0], e_terms
