"""Trajectory output: XYZ frames and a step-hooked recorder.

``repro run --xyz`` writes a run's trajectory so it can be inspected
in standard viewers (VMD, OVITO, ASE all read XYZ).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, TextIO, Union

from repro.md.elements import ID_TO_SYMBOL
from repro.md.system import AtomSystem


def write_xyz_frame(
    fh: TextIO, system: AtomSystem, comment: str = ""
) -> None:
    """Append one XYZ frame (symbol x y z per atom)."""
    fh.write(f"{system.n_atoms}\n")
    fh.write(comment.replace("\n", " ") + "\n")
    symbols = [ID_TO_SYMBOL[int(e)] for e in system.element_ids]
    for sym, (x, y, z) in zip(symbols, system.positions):
        fh.write(f"{sym} {x:.6f} {y:.6f} {z:.6f}\n")


class XyzTrajectoryWriter:
    """Write frames during a run: ``writer.frame(engine)`` per step."""

    def __init__(self, path: Union[str, Path], every: int = 1):
        if every < 1:
            raise ValueError(f"every must be >= 1: {every}")
        self.path = Path(path)
        self.every = every
        self._fh: Optional[TextIO] = None
        self.frames_written = 0
        self._calls = 0

    def __enter__(self) -> "XyzTrajectoryWriter":
        self._fh = open(self.path, "w")
        return self

    def __exit__(self, *exc) -> None:
        if self._fh:
            self._fh.close()
            self._fh = None

    def frame(self, engine, comment: str = "") -> None:
        if self._fh is None:
            raise RuntimeError("writer not opened (use 'with')")
        self._calls += 1
        if (self._calls - 1) % self.every:
            return
        write_xyz_frame(
            self._fh,
            engine.system,
            comment or f"step={engine.step_count}",
        )
        self.frames_written += 1
