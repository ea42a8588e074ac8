"""Workload bundles and the Table I characteristics report."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence


from repro.md.engine import MDEngine
from repro.md.forces.base import Force
from repro.md.system import AtomSystem

#: display names for the dominant-computation column of Table I
_DOMINANT_LABEL = {
    "lj": "Lennard-Jones",
    "coulomb": "Ionic",
    "bonds": "Bonds",
}


@dataclass
class Workload:
    """One benchmark: system + forces + integration parameters."""

    name: str
    system: AtomSystem
    forces: List[Force]
    dt_fs: float
    description: str = ""
    skin: float = 0.8
    #: bond terms of all kinds (Table I's '# of Bonds')
    n_bonds: int = 0

    def make_engine(self, **overrides) -> MDEngine:
        """A fresh engine on a *copy* of the system (workloads are
        reusable across repeated runs)."""
        kwargs = dict(dt_fs=self.dt_fs, skin=self.skin)
        kwargs.update(overrides)
        return MDEngine(self.system.copy(), self.forces, **kwargs)

    def dominant_computation(self) -> str:
        """Measure which force family consumes the most flops in one
        timestep of this workload."""
        engine = self.make_engine()
        report = engine.step()
        flops: Dict[str, float] = {"lj": 0.0, "coulomb": 0.0, "bonds": 0.0}
        for name, res in report.force_results.items():
            if name.startswith("bond"):
                flops["bonds"] += res.flops
            elif name == "coulomb":
                flops["coulomb"] += res.flops
            elif name == "lj":
                flops["lj"] += res.flops
        winner = max(flops, key=flops.get)
        if flops[winner] == 0.0:
            return "None"
        return _DOMINANT_LABEL[winner]

    def characteristics(self) -> Dict[str, object]:
        """This workload's row of Table I."""
        return {
            "Benchmark": self.name,
            "# of Atoms": self.system.n_atoms,
            "# of Charged Atoms": int(len(self.system.charged)),
            "# of Bonds": self.n_bonds,
            "Dominant Computation Type": self.dominant_computation(),
        }


def table1_rows(workloads: Sequence[Workload]) -> List[Dict[str, object]]:
    """Assemble Table I for a set of workloads."""
    return [w.characteristics() for w in workloads]
