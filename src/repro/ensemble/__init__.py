"""Vectorized ensemble execution: many independent runs per sweep.

A parameter sweep over seeds repeats the same physics pipeline dozens
to thousands of times on systems that differ only in their kinematic
state.  Running each replica through the scalar engine pays the full
per-call numpy/Python overhead per run — the dominant cost for the
small systems sweeps use.  This package batches the replicas instead:

* :class:`~repro.ensemble.engine.EnsembleMDEngine` advances ``R`` runs
  at once on ``(n_runs, n_atoms, 3)`` structure-of-arrays stacks,
  reusing the *scalar* integrator/boundary/kernel code on flattened
  views so the two paths cannot drift — per-run step reports are
  byte-identical (pickle protocol 4) to scalar captures by
  construction, which keeps the content-addressed run cache sound.
* :mod:`~repro.ensemble.routing` tells the sweep supervisor which
  capture misses form one batch.  A batch is one unit of work like any
  single spec: the supervisor runs it in-process or in a pool worker,
  and each run is published under its own spec digest with its own
  journal records — cache/journal/leaderboard consumers see no
  difference.

Runs whose configuration the batched path cannot reproduce exactly
raise :class:`~repro.ensemble.engine.EnsembleUnsupported`; the
supervisor then runs them one spec at a time.
"""

from repro.ensemble.engine import (
    EnsembleMDEngine,
    EnsembleUnsupported,
    ensemble_capture,
)
from repro.ensemble.system import EnsembleState, FlatSystemView

__all__ = [
    "EnsembleMDEngine",
    "EnsembleState",
    "EnsembleUnsupported",
    "FlatSystemView",
    "ensemble_capture",
]
