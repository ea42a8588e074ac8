"""Simulation-box boundary conditions.

MW simulates atoms in a closed box with reflective walls (the atoms
bounce off the viewport edges); :class:`ReflectiveBox` reproduces that.
:class:`PeriodicBox` provides minimum-image wrapping.
"""

from __future__ import annotations

import abc

import numpy as np


class Boundary(abc.ABC):
    """Strategy for box edges: position fixing and displacement rules."""

    def __init__(self, box: np.ndarray):
        self.box = np.asarray(box, dtype=np.float64)

    @abc.abstractmethod
    def apply(self, positions: np.ndarray, velocities: np.ndarray) -> None:
        """Fix positions (and possibly velocities) in place after a move."""

    @abc.abstractmethod
    def displacement(self, dr: np.ndarray) -> np.ndarray:
        """Map raw displacement vectors to physical ones (min image for
        periodic boxes; identity for walls)."""

    @property
    def periodic(self) -> bool:
        return False


class ReflectiveBox(Boundary):
    """Hard walls: atoms reflect elastically off the box faces."""

    def apply(self, positions: np.ndarray, velocities: np.ndarray) -> None:
        # indexed as [..., axis] so the same code serves one system's
        # (n, 3) arrays and (n_runs, n, 3) stacks (with a shared (3,)
        # box or a per-run (n_runs, 1, 3) one)
        box = self.box
        for axis in range(3):
            p = positions[..., axis]
            v = velocities[..., axis]
            b = box[..., axis]
            low = p < 0.0
            if np.any(low):
                p[low] = -p[low]
                v[low] = np.abs(v[low])
            high = p > b
            if np.any(high):
                p[high] = (2.0 * b - p)[high]
                v[high] = -np.abs(v[high])
        # extreme velocities can overshoot both walls in one step; clamp
        np.clip(positions, 0.0, box, out=positions)

    def displacement(self, dr: np.ndarray) -> np.ndarray:
        return dr


class PeriodicBox(Boundary):
    """Periodic wrap with minimum-image displacements."""

    def apply(self, positions: np.ndarray, velocities: np.ndarray) -> None:
        np.mod(positions, self.box, out=positions)

    def displacement(self, dr: np.ndarray) -> np.ndarray:
        return dr - self.box * np.round(dr / self.box)

    @property
    def periodic(self) -> bool:
        return True
