"""Which sweep misses run as one ensemble batch.

The sweep supervisor (:func:`repro.runcache.resilience.supervise`)
schedules units of work; :func:`plan_units` decides them.  Capture
misses of the same workload family and step count, varying only in
seed and with no fault plan, form one batch once there are
``MIN_BATCH`` of them.  :func:`prepare_batch` builds the batch's
:class:`~repro.ensemble.engine.EnsembleMDEngine`, one vectorized
pipeline producing every run's scalar-identical trace.  Every other
miss is a unit of its own.

A batch is scheduled like any other unit and each of its runs is
published under its own spec digest with its own journal records, so
cache and journal consumers cannot tell the paths apart.  A batch the
engine cannot reproduce exactly raises
:class:`~repro.ensemble.engine.EnsembleUnsupported` while it is being
built, and the supervisor splits it into single-spec units.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runcache.key import RunSpec

from repro.ensemble.engine import EnsembleMDEngine

#: a batch below this size gains nothing over the scalar path
MIN_BATCH = 2

Miss = Tuple[str, RunSpec]


def _group_key(spec: RunSpec) -> Optional[tuple]:
    """Batch key for a spec, or None when it must run on its own."""
    if spec.fault_plan is not None or spec.kind != "capture":
        return None
    return ("capture", spec.workload, spec.steps)


def plan_units(misses: List[Miss]) -> List[List[Miss]]:
    """Group ``misses`` into units, in order of first appearance."""
    groups: Dict[tuple, List[Miss]] = {}
    for key, spec in misses:
        group = _group_key(spec) or ("single", key)
        groups.setdefault(group, []).append((key, spec))
    units: List[List[Miss]] = []
    for group, items in groups.items():
        if group[0] == "capture" and len(items) >= MIN_BATCH:
            units.append(items)
        else:
            units.extend([item] for item in items)
    return units


def prepare_batch(specs: Sequence[RunSpec]) -> Callable[[], List[Any]]:
    """Build a capture batch's engine and return its executor.  Raises
    :class:`~repro.ensemble.engine.EnsembleUnsupported` before anything
    runs when the workload cannot be batched."""
    from repro.workloads import BUILDERS

    engines = [
        BUILDERS[spec.workload](seed=spec.seed).make_engine()
        for spec in specs
    ]
    eng = EnsembleMDEngine(engines)

    def execute() -> List[Any]:
        eng.prime()
        return eng.run(specs[0].steps)

    return execute
