"""The uncached attribution reference, kept as a test oracle.

``attribute`` is what ``repro.obs.attribution.attribute`` was before
every attribution went through specs and the run cache: it builds the
workload from its default builder (seed 0), captures the physics in
process unless handed a ``trace``, observes the replay at 1 and at
``n_threads`` workers on fresh simulated machines and decomposes the
gap.  It takes what no spec carries (a built workload, a fault plan,
custom cost parameters, a shared baseline), so the tests that need
those call it; :func:`repro.runcache.attribute_cached` must stay
value-identical to it on the spec defaults.
"""

from typing import Optional, Union

from repro.core.costmodel import CostParams
from repro.core.simulate import capture_trace
from repro.machine import MACHINES
from repro.machine.topology import CORE_I7_920, MachineSpec
from repro.obs.attribution import (
    AttributionResult,
    RunObservation,
    attribute_observations,
    observe_run,
)
from repro.workloads import BUILDERS, resolve_workload


def attribute(
    workload: Union[str, object],
    n_threads: int,
    *,
    spec: Union[str, MachineSpec] = CORE_I7_920,
    steps: int = 5,
    seed: int = 0,
    trace=None,
    baseline: Optional[RunObservation] = None,
    params: Optional[CostParams] = None,
    fault_plan=None,
    **run_kwargs,
) -> AttributionResult:
    """End-to-end attribution for one workload × thread count.

    Runs the serial physics once (or reuses ``trace``), replays it at 1
    and at ``n_threads`` workers on fresh simulated machines, and
    returns the conserved decomposition.  ``baseline`` reuses a 1-thread
    observation.  A ``fault_plan`` is armed on the ``n_threads``
    observation only — the baseline stays fault-free, so the
    ``fault_loss`` bucket measures pure injected loss.
    """
    if isinstance(spec, str):
        spec = MACHINES[spec]
    if isinstance(workload, str):
        wl = BUILDERS[resolve_workload(workload)]()
    else:
        wl = workload
    if trace is None:
        trace = capture_trace(wl, steps)
    kwargs = dict(run_kwargs)
    if params is not None:
        kwargs["params"] = params
    if baseline is None:
        baseline = observe_run(
            trace, wl.system.n_atoms, spec, 1,
            seed=seed, name=wl.name, workload=wl.name, **kwargs,
        )
    if n_threads == 1 and fault_plan is None:
        obs = baseline
    else:
        obs = observe_run(
            trace, wl.system.n_atoms, spec, n_threads,
            seed=seed, name=wl.name, workload=wl.name,
            fault_plan=fault_plan, **kwargs,
        )
    return attribute_observations(
        obs, baseline, trace,
        machine=spec.name, params=params,
        fuse_rebuild=kwargs.get("fuse_rebuild", True),
    )
