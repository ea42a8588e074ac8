"""Force-field implementations.

Three families, matching §II-B's taxonomy and — crucially for the
performance study — three distinct memory-access characters:

* :class:`LennardJonesForce` — neighbor-list driven, irregular gathers
  (``A[B[i]]``), low arithmetic intensity: the Al-1000 profile.
* :class:`CoulombForce` — all charged pairs, linear streaming, heavy
  arithmetic: the salt profile.
* :class:`RadialBondForce` / :class:`AngularBondForce` /
  :class:`TorsionalBondForce` — bond-list driven, most flops per term,
  up to four atoms with indirect indexing: the nanocar profile.
"""

from repro.md.forces.base import Force, ForceResult
from repro.md.forces.bonded import (
    AngularBondForce,
    RadialBondForce,
    TorsionalBondForce,
)
from repro.md.forces.coulomb import CoulombForce
from repro.md.forces.lj import LennardJonesForce

__all__ = [
    "AngularBondForce",
    "CoulombForce",
    "Force",
    "ForceResult",
    "LennardJonesForce",
    "RadialBondForce",
    "TorsionalBondForce",
]
