"""Structure-of-arrays atom state.

MW stores "data about each atom in an array of objects"; a NumPy
reproduction keeps the same logical content in packed parallel arrays
(the layout the paper wished Java could guarantee).  The object-graph
layout — and its cache consequences — is modelled separately in
:mod:`repro.jvm` for the §V-A packing experiment.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.md.elements import ELEMENT_IDS, ELEMENTS, Element
from repro.md.units import ACCEL_UNIT, kinetic_to_kelvin, thermal_velocity


def kinetic_energies(
    masses: np.ndarray, velocities: np.ndarray
) -> List[float]:
    """Kinetic energy in eV (½ m v² / ACCEL_UNIT) of each run of an
    ``(n_runs, n_atoms, 3)`` velocity stack."""
    v2 = np.einsum("rij,rij->ri", velocities, velocities)
    return [float(0.5 * np.dot(masses, row) / ACCEL_UNIT) for row in v2]


class AtomSystem:
    """All per-atom state for one simulation.

    Arrays (all length N unless noted):

    ``positions, velocities, accelerations`` — (N, 3) float64 in Å, Å/fs,
    Å/fs²;  ``forces`` — (N, 3) eV/Å;  ``masses, charges, sigma,
    epsilon`` — float64;  ``element_ids`` — int32;  ``movable`` — bool
    (False = fixed platform atoms that "do not interact with one
    another", like the nanocar's gold platform).
    """

    def __init__(self, box: Sequence[float]):
        box = np.asarray(box, dtype=np.float64)
        if box.shape != (3,) or np.any(box <= 0):
            raise ValueError(f"box must be 3 positive lengths, got {box}")
        self.box = box
        self.positions = np.zeros((0, 3))
        self.velocities = np.zeros((0, 3))
        self.accelerations = np.zeros((0, 3))
        self.forces = np.zeros((0, 3))
        self.masses = np.zeros(0)
        self.charges = np.zeros(0)
        self.sigma = np.zeros(0)
        self.epsilon = np.zeros(0)
        self.element_ids = np.zeros(0, dtype=np.int32)
        self.movable = np.zeros(0, dtype=bool)

    # -- construction --------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    def add_atoms(
        self,
        element: str | Element,
        positions: np.ndarray,
        velocities: Optional[np.ndarray] = None,
        charges: Optional[np.ndarray] = None,
        movable: bool = True,
    ) -> np.ndarray:
        """Append atoms of one element; returns their indices."""
        if isinstance(element, str):
            element = ELEMENTS[element]
        positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        if positions.shape[1] != 3:
            raise ValueError(f"positions must be (n, 3), got {positions.shape}")
        n = len(positions)
        if velocities is None:
            velocities = np.zeros((n, 3))
        else:
            velocities = np.atleast_2d(np.asarray(velocities, dtype=np.float64))
            if velocities.shape != (n, 3):
                raise ValueError("velocities shape mismatch")
        if charges is None:
            charges = np.zeros(n)
        else:
            charges = np.broadcast_to(
                np.asarray(charges, dtype=np.float64), (n,)
            ).copy()
        lo = self.n_atoms
        self.positions = np.vstack([self.positions, positions])
        self.velocities = np.vstack([self.velocities, velocities])
        self.accelerations = np.vstack([self.accelerations, np.zeros((n, 3))])
        self.forces = np.vstack([self.forces, np.zeros((n, 3))])
        self.masses = np.append(self.masses, np.full(n, element.mass))
        self.charges = np.append(self.charges, charges)
        self.sigma = np.append(self.sigma, np.full(n, element.sigma))
        self.epsilon = np.append(self.epsilon, np.full(n, element.epsilon))
        self.element_ids = np.append(
            self.element_ids,
            np.full(n, ELEMENT_IDS[element.symbol], dtype=np.int32),
        )
        self.movable = np.append(self.movable, np.full(n, movable))
        return np.arange(lo, lo + n)

    def set_thermal_velocities(
        self, temperature_k: float, rng: np.random.Generator
    ) -> None:
        """Maxwell-Boltzmann velocities for movable atoms; net momentum
        of the movable set is removed."""
        self.draw_velocities(self.thermal_scale(temperature_k), rng)

    def thermal_scale(self, temperature_k: float) -> np.ndarray:
        """Per movable atom, the RMS speed per Cartesian component at
        ``temperature_k`` (the scale :meth:`draw_velocities` takes)."""
        return np.array([
            thermal_velocity(temperature_k, m)
            for m in self.masses[self.movable]
        ])

    def draw_velocities(
        self, scale: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Normal velocities of per-atom ``scale`` for the movable
        atoms, drawn from ``rng``; net momentum of the movable set is
        removed."""
        mv = self.movable
        n = int(mv.sum())
        if n == 0:
            return
        v = rng.standard_normal((n, 3)) * scale[:, None]
        # remove center-of-mass drift
        mom = (v * self.masses[mv][:, None]).sum(axis=0)
        v -= mom / self.masses[mv].sum()
        self.velocities[mv] = v

    # -- physics queries -------------------------------------------------------

    def kinetic_energy(self) -> float:
        """Total kinetic energy in eV (½ m v² / ACCEL_UNIT)."""
        return kinetic_energies(self.masses, self.velocities[None])[0]

    def temperature(self) -> float:
        """Instantaneous temperature of the movable atoms, in K."""
        mv = self.movable
        n = int(mv.sum())
        if n == 0:
            return 0.0
        v2 = np.einsum(
            "ij,ij->i", self.velocities[mv], self.velocities[mv]
        )
        ke = float(0.5 * np.dot(self.masses[mv], v2) / ACCEL_UNIT)
        return kinetic_to_kelvin(ke, 3 * n)

    def momentum(self) -> np.ndarray:
        """Total momentum vector (amu·Å/fs)."""
        return (self.velocities * self.masses[:, None]).sum(axis=0)

    @property
    def charged(self) -> np.ndarray:
        """Indices of charged atoms (the Coulomb participants)."""
        return np.nonzero(self.charges != 0.0)[0]

    def working_set_bytes(self, overhead_per_atom: int = 0) -> int:
        """Bytes of per-atom state (the Table I working-set figure adds
        Java object overhead via ``overhead_per_atom``)."""
        per_atom = (
            4 * 3 * 8  # positions, velocities, accelerations, forces
            + 4 * 8  # masses, charges, sigma, epsilon
            + 4  # element id
            + 1  # movable
            + overhead_per_atom
        )
        return self.n_atoms * per_atom

    def permute(self, order: np.ndarray) -> np.ndarray:
        """Reorder atoms so that new index ``k`` is old index
        ``order[k]``; returns the inverse map (old index → new index)
        for remapping bond lists.

        Atom index order is semantically loaded in MW: pair ownership,
        work distribution, and the §V-A data-reordering experiment all
        key off it.
        """
        order = np.asarray(order, dtype=np.int64)
        n = self.n_atoms
        if sorted(order.tolist()) != list(range(n)):
            raise ValueError("order must be a permutation of all atoms")
        for name in self._ARRAY_FIELDS:
            setattr(self, name, getattr(self, name)[order])
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = np.arange(n)
        return inverse

    _ARRAY_FIELDS = (
        "positions",
        "velocities",
        "accelerations",
        "forces",
        "masses",
        "charges",
        "sigma",
        "epsilon",
        "element_ids",
        "movable",
    )

    def save(self, path) -> None:
        """Persist the full state as a compressed ``.npz`` archive."""
        arrays = {name: getattr(self, name) for name in self._ARRAY_FIELDS}
        np.savez_compressed(path, box=self.box, **arrays)

    @classmethod
    def load(cls, path) -> "AtomSystem":
        """Restore a system previously written by :meth:`save`."""
        with np.load(path) as data:
            missing = [
                k for k in ("box", *cls._ARRAY_FIELDS) if k not in data
            ]
            if missing:
                raise ValueError(
                    f"{path}: not an AtomSystem archive (missing {missing})"
                )
            system = cls(data["box"])
            for name in cls._ARRAY_FIELDS:
                setattr(system, name, data[name].copy())
        return system

    def copy(self) -> "AtomSystem":
        """Deep copy of the whole state."""
        other = object.__new__(AtomSystem)  # the box is valid already
        other.box = self.box.copy()
        for name in self._ARRAY_FIELDS:
            setattr(other, name, getattr(self, name).copy())
        return other

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AtomSystem(n={self.n_atoms}, box={self.box.tolist()}, "
            f"charged={len(self.charged)})"
        )
