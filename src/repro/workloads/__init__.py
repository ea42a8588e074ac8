"""The paper's three benchmarks (Table I) and structure generators.

==========  ========  ================  =========  =====================
Benchmark   # Atoms   # Charged Atoms   # Bonds    Dominant Computation
==========  ========  ================  =========  =====================
nanocar     989       0                 2277       Bonds
salt        800       800               0          Ionic
Al-1000     1000      0                 0          Lennard-Jones
==========  ========  ================  =========  =====================

Each builder returns a :class:`~repro.workloads.base.Workload` bundling
the atom system, force objects, timestep, and the Table I
characteristics (the dominant type is *measured* from the actual flop
distribution, not hard-coded).
"""

from repro.workloads.al1000 import build_al1000
from repro.workloads.base import Workload, table1_rows
from repro.workloads.nanocar import build_nanocar
from repro.workloads.salt import build_salt
from repro.workloads.scaling import (
    build_ionic_gas,
    build_lj_block,
    build_lj_gas,
)

#: the paper's Table I benchmarks — the default set for CLI commands
PAPER_WORKLOADS = ("nanocar", "salt", "Al-1000")


def _scaled(builder, n_atoms):
    def build(seed: int = 0):
        return builder(n_atoms, seed=seed)

    build.__name__ = f"build_{builder.__name__}_{n_atoms}"
    return build


BUILDERS = {
    "nanocar": build_nanocar,
    "salt": build_salt,
    "Al-1000": build_al1000,
    # scaled generator workloads (ensemble/throughput studies): small
    # enough that per-run numpy overhead dominates, which is exactly
    # the regime lockstep seed batches target
    "gas-8": _scaled(build_lj_gas, 8),
    "gas-16": _scaled(build_lj_gas, 16),
    "gas-64": _scaled(build_lj_gas, 64),
    "lj-32": _scaled(build_lj_block, 32),
    "lj-64": _scaled(build_lj_block, 64),
    "lj-256": _scaled(build_lj_block, 256),
    "ionic-64": _scaled(build_ionic_gas, 64),
}


def _fold(name: str) -> str:
    return "".join(c for c in name.lower() if c.isalnum())


def resolve_workload(name: str) -> str:
    """Canonical ``BUILDERS`` key for a user-supplied workload name.

    Lookup is case- and punctuation-insensitive, so ``al1000``,
    ``AL-1000`` and ``al_1000`` all resolve to ``"Al-1000"``.  Raises
    ``KeyError`` listing the valid names otherwise.
    """
    if name in BUILDERS:
        return name
    folded = _fold(name)
    for canonical in BUILDERS:
        if _fold(canonical) == folded:
            return canonical
    raise KeyError(
        f"unknown workload {name!r}; choose from {sorted(BUILDERS)}"
    )


__all__ = [
    "BUILDERS",
    "PAPER_WORKLOADS",
    "Workload",
    "build_al1000",
    "build_ionic_gas",
    "build_lj_block",
    "build_lj_gas",
    "build_nanocar",
    "build_salt",
    "resolve_workload",
    "table1_rows",
]
