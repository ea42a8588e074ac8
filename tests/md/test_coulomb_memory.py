"""Memory bounds of salt's Coulomb call, measured with tracemalloc.

Allocation sizes depend on the code, not on the host, so these bounds
hold on any machine; the kernel's wall time does not resolve a change
of this size on a small VM.  Salt has 800 charged atoms and 319,600
ring pairs: one ``(T,)`` float64 array is 2.56 MB.
"""

import tracemalloc

import numpy as np

from repro.md import CoulombForce
from repro.md.boundary import ReflectiveBox
from repro.workloads import build_salt

MB = 1e6
#: one steady-state call: one 12.8 MB block for the displacements, r²
#: and r, and the 5.1 MB ring buffer the forces are summed in
CALL_PEAK_MB = 25.0
#: what the force object keeps between calls: the ring plan's charge
#: products and per-atom work
PLAN_RETAINED_MB = 3.0


def _traced(fn):
    """``fn()``'s traced (net retained, peak) bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current - before, peak - before


def test_salt_coulomb_call_peak_and_plan_size():
    system = build_salt(0).system
    boundary = ReflectiveBox(system.box)
    forces = np.zeros((system.n_atoms, 3))
    force = CoulombForce()

    def call():
        force.compute_runs(system, boundary, None, forces, 1)

    retained, first_peak = _traced(call)  # builds and caches the plan
    assert retained <= PLAN_RETAINED_MB * MB, retained / MB
    # building the plan costs no more than the plan it keeps
    first_bound = (CALL_PEAK_MB + PLAN_RETAINED_MB) * MB
    assert first_peak <= first_bound, first_peak / MB
    _, peak = _traced(call)
    assert peak <= CALL_PEAK_MB * MB, peak / MB
