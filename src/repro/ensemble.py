"""Seed batches through the one MD engine.

A sweep over seeds repeats the same physics pipeline many times on
systems that differ only in their kinematic state, and for the small
systems sweeps use, the per-call numpy/Python overhead of stepping each
run alone dominates.  :func:`ensemble_capture` is the many-seed form of
:func:`~repro.core.simulate.capture_trace`: it joins one fresh engine
per seed with :meth:`MDEngine.lockstep <repro.md.engine.MDEngine.lockstep>`
and returns one trace per seed, each pickling to exactly the bytes of
that seed's one-run capture (asserted at pickle level by
``tests/ensemble/``).  Byte identity is load-bearing: the run cache
publishes batched results under the same content addresses as one-run
results.

The sweep supervisor groups capture misses into batches
(:func:`repro.runcache.resilience.plan_units`), and a batch's executor
(:func:`repro.runcache.sweep.prepare_unit`) calls this function.  Runs
that cannot share one pipeline raise :class:`EnsembleUnsupported`; a
batch that raises anything fails like any unit, and its runs retry one
spec at a time.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.md.engine import EnsembleUnsupported, MDEngine, StepReport

__all__ = ["EnsembleUnsupported", "ensemble_capture"]


def ensemble_capture(
    workload: str, n_steps: int, seeds: Sequence[int]
) -> List[List[StepReport]]:
    """One trace per seed of ``workload``, run as one lockstep batch.
    Raises :class:`EnsembleUnsupported` when the seeds cannot share
    one pipeline."""
    from repro.workloads import BUILDERS, resolve_workload

    name = resolve_workload(workload)
    engine = MDEngine.lockstep(
        [BUILDERS[name](seed=seed).make_engine() for seed in seeds]
    )
    engine.prime()
    return engine.run_all(n_steps)
