"""Parallel Molecular Workbench — the paper's primary contribution.

Two engines share the same decomposition (the §II work-queue pattern:
fixed thread pools, 1/N atom partitions, privatized force arrays with a
reduction, countdown latches between phases):

* :class:`~repro.core.parallel.ParallelMDEngine` — runs on **real
  Python threads** via :mod:`repro.concurrent`.  Its job is correctness:
  step-for-step it must produce the same trajectory as the serial
  engine.  (On a GIL interpreter it cannot exhibit speedup — the
  documented substitution.)
* :class:`~repro.core.simulate.SimulatedParallelRun` — replays a
  captured work trace on the :class:`~repro.machine.SimMachine`,
  converting measured per-phase work counts into simulated time through
  :class:`~repro.core.costmodel.MachineCostModel`.  Every performance
  experiment (Fig. 1, Table III, the observer-effect and pinning
  studies) runs here.
"""

from repro.core.costmodel import CostParams, MachineCostModel
from repro.core.inspector import (
    ReorderResult,
    index_locality,
    reorder_system,
    spatial_order,
)
from repro.core.parallel import ParallelMDEngine
from repro.core.partition import (
    balanced_partition,
    block_partition,
    imbalance,
    range_weights,
)
from repro.core.simulate import RunResult, SimulatedParallelRun, capture_trace

__all__ = [
    "CostParams",
    "MachineCostModel",
    "ParallelMDEngine",
    "ReorderResult",
    "RunResult",
    "SimulatedParallelRun",
    "balanced_partition",
    "block_partition",
    "capture_trace",
    "imbalance",
    "index_locality",
    "range_weights",
    "reorder_system",
    "spatial_order",
]
