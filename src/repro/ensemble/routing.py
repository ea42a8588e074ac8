"""Which sweep misses run as one ensemble batch.

The sweep supervisor (:func:`repro.runcache.resilience.supervise`)
schedules units of work; :func:`plan_units` decides them.  Capture
misses of the same workload family and step count, varying only in
seed and with no fault plan, form one batch once there are
``MIN_BATCH`` of them.  :func:`prepare_batch` joins the batch's
engines into one lockstep :class:`~repro.md.engine.MDEngine`, one
pipeline producing every run's trace, each byte-identical to its
one-run capture.  Every other miss is a unit of its own.

A batch is scheduled like any other unit and each of its runs is
published under its own spec digest with its own journal records, so
cache and journal consumers cannot tell a batched run from a single
one.  A batch whose runs cannot share one pipeline raises
:class:`~repro.md.engine.EnsembleUnsupported` while it is being built,
and the supervisor splits it into single-spec units.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runcache.key import RunSpec

from repro.md.engine import MDEngine

#: a batch below this size gains nothing over single runs
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
    :class:`~repro.md.engine.EnsembleUnsupported` before anything runs
    when the workload cannot be batched."""
    from repro.workloads import BUILDERS

    engine = MDEngine.lockstep([
        BUILDERS[spec.workload](seed=spec.seed).make_engine()
        for spec in specs
    ])

    def execute() -> List[Any]:
        engine.prime()
        return engine.run_all(specs[0].steps)

    return execute
