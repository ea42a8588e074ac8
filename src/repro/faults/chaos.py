"""The chaos harness: sweep fault plans and assert the run survives.

For each workload × fault plan this harness

1. runs the *real* serial physics once and checks the MD invariants on
   it (energy drift bounded, atom count constant) — faults perturb the
   simulated machine, never the physics, so the captured trace is the
   ground truth every replay must still complete;
2. replays the trace on the simulated machine with the plan armed and
   self-healing on, asserting **step completion**: every timestep's
   every phase latch tripped and every submitted task completed
   (re-issued if a fault ate its first attempt);
3. replays it **twice** and byte-compares the serialized event traces —
   same seed + same plan ⇒ identical simulated history.

``chaos_sweep`` aggregates cases into the ``repro.chaos/1`` payload
that ``tests/gates/test_chaos.py`` validates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.concurrent import QueueMode
from repro.core.simulate import (
    SimulatedParallelRun,
    capture_trace,
    trace_atoms,
)
from repro.faults.plan import (
    FaultPlan,
    GcAmplify,
    LockStall,
    PreemptStorm,
    Straggler,
    TaskLoss,
    WorkerCrash,
)
from repro.jvm.gc import AllocationRecorder, GcModel
from repro.machine.machine import SimMachine
from repro.machine.topology import CORE_I7_920, MachineSpec
from repro.obs.tracer import Tracer
from repro.telemetry import runtime as telemetry_runtime
from repro.workloads import BUILDERS, resolve_workload

CHAOS_SCHEMA = "repro.chaos/1"

#: |E(t_end) − E(t_0)| / max(|E(t_0)|, 1) must stay under this across a
#: captured run — loose enough for the explicit integrator at the
#: default timestep, tight enough to catch a broken force kernel
ENERGY_DRIFT_TOL = 0.05


def default_plans(
    t0: float, n_threads: int, n_pus: int
) -> Dict[str, FaultPlan]:
    """One representative plan per fault type, timed as fractions of the
    measured fault-free duration ``t0`` so every fault actually lands
    inside the run regardless of workload scale."""
    plans = {
        "worker-crash": FaultPlan(
            name="worker-crash",
            faults=(WorkerCrash(at=0.2 * t0, worker=n_threads - 1),),
        ),
        # the window spans nearly the whole run: a short window on one
        # of n_pus cores frequently misses every burst the scheduler
        # happens to place there, making the case a silent no-op
        "straggler": FaultPlan(
            name="straggler",
            faults=(
                Straggler(
                    start=0.05 * t0, duration=2.0 * t0, pu=1, factor=0.4
                ),
            ),
        ),
        "preempt-storm": FaultPlan(
            name="preempt-storm",
            faults=(
                PreemptStorm(
                    start=0.1 * t0,
                    duration=0.4 * t0,
                    pus=tuple(range(min(2, n_pus))),
                    utilization=0.6,
                ),
            ),
        ),
        "task-loss": FaultPlan(
            name="task-loss", faults=(TaskLoss(at=0.15 * t0, index=0),)
        ),
        # grab the dequeue lock right at the first phase dispatch —
        # mid-run instants often land inside a long all-workers-busy
        # stretch where nobody touches the lock and nothing stalls
        "lock-stall": FaultPlan(
            name="lock-stall",
            faults=(
                LockStall(at=0.0, duration=0.5 * t0, lock="queue"),
            ),
        ),
        "gc-amplify": FaultPlan(
            name="gc-amplify", faults=(GcAmplify(factor=3.0),)
        ),
    }
    return plans


def physics_invariants(trace, n_atoms: int) -> dict:
    """Energy-drift and atom-count checks on a captured physics trace."""
    e0 = trace[0].total_energy
    e1 = trace[-1].total_energy
    drift = abs(e1 - e0) / max(abs(e0), 1.0)
    atoms_ok = all(
        len(r.phase_work["forces"].per_atom) == n_atoms for r in trace
    )
    return {
        "energy_initial": e0,
        "energy_final": e1,
        "energy_drift": drift,
        "energy_ok": drift <= ENERGY_DRIFT_TOL,
        "atom_count": n_atoms,
        "atoms_ok": atoms_ok,
    }


def _chaos_gc_model() -> GcModel:
    """Fresh GC model for one chaos replay: a deliberately small young
    generation so even 2–3-step runs trigger collections — without a
    pause to balloon, the gc_amplify fault would be untestable."""
    return GcModel(
        AllocationRecorder(),
        young_gen_bytes=256 * 2**10,
        min_pause=5e-5,
    )


def _traced_replay(
    trace,
    n_atoms: int,
    spec: MachineSpec,
    n_threads: int,
    plan: Optional[FaultPlan],
    *,
    seed: int,
    name: str,
    phase_timeout: Optional[float],
    queue_mode: QueueMode,
):
    machine = SimMachine(spec, seed=seed)
    tracer = Tracer().attach(machine.sim)
    run = SimulatedParallelRun(
        trace,
        n_atoms,
        machine,
        n_threads,
        name=name,
        queue_mode=queue_mode,
        gc_model=_chaos_gc_model(),
        fault_plan=plan,
        phase_timeout=phase_timeout,
    )
    result = run.run()
    tracer.detach()
    return result, tracer, run


def run_chaos_case(
    workload: Union[str, object],
    plan: Optional[FaultPlan],
    n_threads: int = 4,
    *,
    spec: Union[str, MachineSpec] = CORE_I7_920,
    steps: int = 3,
    seed: int = 0,
    trace=None,
    phase_timeout_factor: float = 20.0,
    queue_mode: QueueMode = QueueMode.SINGLE,
) -> dict:
    """One workload × plan chaos case; returns the checks dict.

    ``phase_timeout_factor`` scales the fault-free duration into the
    hardened master's per-phase stall bound (generous: a phase is
    declared stalled only when it exceeds many whole fault-free runs).
    """
    if isinstance(spec, str):
        from repro.machine import MACHINES

        spec = MACHINES[spec]
    wl = None if isinstance(workload, str) else workload
    name = wl.name if wl is not None else resolve_workload(workload)
    if trace is None:
        trace = capture_trace(
            wl if wl is not None else BUILDERS[name](), steps
        )
    # the capture carries the atom count: a replay builds no workload
    n_atoms = trace_atoms(trace)
    physics = physics_invariants(trace, n_atoms)

    # fault-free reference: scales the plan-independent timeout and
    # gives the baseline duration the report compares against
    machine0 = SimMachine(spec, seed=seed)
    ref = SimulatedParallelRun(
        trace, n_atoms, machine0, n_threads,
        name=name, queue_mode=queue_mode,
        gc_model=_chaos_gc_model(),
    ).run()
    phase_timeout = phase_timeout_factor * ref.sim_seconds

    completed = True
    error = ""
    try:
        result, tracer, run = _traced_replay(
            trace, n_atoms, spec, n_threads, plan,
            seed=seed, name=name,
            phase_timeout=phase_timeout, queue_mode=queue_mode,
        )
        result2, tracer2, _run2 = _traced_replay(
            trace, n_atoms, spec, n_threads, plan,
            seed=seed, name=name,
            phase_timeout=phase_timeout, queue_mode=queue_mode,
        )
    except Exception as exc:  # a hung/aborted replay is a failed case
        return _observed_case({
            "workload": name,
            "plan": plan.name if plan is not None else "none",
            "threads": n_threads,
            "steps": steps,
            "ok": False,
            "completed": False,
            "error": f"{type(exc).__name__}: {exc}",
            "physics": physics,
        })

    spans = tracer.task_spans()
    n_enqueued = len(spans)
    n_completed = sum(1 for s in spans if s.finished is not None)
    windows = tracer.phase_windows()
    phases_ok = bool(windows) and all(w.complete for w in windows)
    steps_ok = result.steps == len(trace)
    tasks_ok = n_completed == n_enqueued and n_enqueued > 0
    deterministic = tracer.serialize() == tracer2.serialize()
    same_duration = result.sim_seconds == result2.sim_seconds
    ok = bool(
        physics["energy_ok"]
        and physics["atoms_ok"]
        and completed
        and steps_ok
        and phases_ok
        and tasks_ok
        and deterministic
        and same_duration
    )
    return _observed_case({
        "workload": name,
        "plan": plan.name if plan is not None else "none",
        "threads": n_threads,
        "steps": steps,
        "ok": ok,
        "completed": completed,
        "error": error,
        "physics": physics,
        "steps_ok": steps_ok,
        "phases_ok": phases_ok,
        "tasks_enqueued": n_enqueued,
        "tasks_completed": n_completed,
        "tasks_ok": tasks_ok,
        "deterministic": deterministic,
        "reissued": list(result.reissued),
        "dead_workers": list(result.dead_workers),
        "fault_events": sum(
            1 for e in tracer.events if e.kind.startswith("fault.")
        ),
        "baseline_seconds": ref.sim_seconds,
        "faulted_seconds": result.sim_seconds,
        "slowdown": (
            result.sim_seconds / ref.sim_seconds
            if ref.sim_seconds
            else 0.0
        ),
    })


def _observed_case(case: dict) -> dict:
    """Mirror one case verdict into the active telemetry run."""
    telemetry_runtime.current().event(
        "chaos.case",
        workload=case["workload"],
        plan=case["plan"],
        ok=case["ok"],
        completed=case["completed"],
        slowdown=case.get("slowdown", 0.0),
    )
    return case


def chaos_sweep(
    workloads: Sequence[str] = ("salt", "nanocar", "Al-1000"),
    n_threads: int = 4,
    *,
    plans: Optional[Dict[str, FaultPlan]] = None,
    spec: Union[str, MachineSpec] = CORE_I7_920,
    steps: int = 3,
    seed: int = 0,
    cache=None,
    jobs: Optional[int] = None,
) -> dict:
    """Sweep fault plans across workloads; the ``repro.chaos/1`` payload.

    With ``plans=None`` the default plan battery is generated per
    workload from its measured fault-free duration (plus a fault-free
    control case).  With a :class:`repro.runcache.RunCache`, the
    fault-free references and every case run through the content-
    addressed store (misses fanned out over ``jobs`` workers) — the
    payload is value-identical to the uncached sweep's.
    """
    if isinstance(spec, str):
        from repro.machine import MACHINES

        spec = MACHINES[spec]
    names = [resolve_workload(w) for w in workloads]
    with telemetry_runtime.current().span(
        "chaos.sweep",
        workloads=",".join(names),
        threads=n_threads,
        cached=cache is not None,
    ):
        if cache is not None:
            return _chaos_sweep_cached(
                names, n_threads, plans=plans, spec=spec, steps=steps,
                seed=seed, cache=cache, jobs=jobs,
            )
        return _chaos_sweep_serial(
            names, n_threads, plans=plans, spec=spec, steps=steps,
            seed=seed,
        )


def _chaos_sweep_serial(
    names: Sequence[str],
    n_threads: int,
    *,
    plans: Optional[Dict[str, FaultPlan]],
    spec: MachineSpec,
    steps: int,
    seed: int,
) -> dict:
    runs: List[dict] = []
    for wname in names:
        wl = BUILDERS[wname]()
        trace = capture_trace(wl, steps)
        machine0 = SimMachine(spec, seed=seed)
        ref = SimulatedParallelRun(
            trace, wl.system.n_atoms, machine0, n_threads,
            name=wl.name, gc_model=_chaos_gc_model(),
        ).run()
        battery = (
            plans
            if plans is not None
            else default_plans(
                ref.sim_seconds, n_threads, spec.n_pus
            )
        )
        cases: Dict[str, Optional[FaultPlan]] = {"none": None}
        cases.update(battery)
        for pname, plan in cases.items():
            case = run_chaos_case(
                wl, plan, n_threads,
                spec=spec, steps=steps, seed=seed, trace=trace,
            )
            case["plan"] = pname
            runs.append(case)
    return _chaos_payload(spec, steps, seed, n_threads, list(names), runs)


def _chaos_payload(spec, steps, seed, n_threads, names, runs) -> dict:
    return {
        "schema": CHAOS_SCHEMA,
        "machine": spec.name,
        "steps": steps,
        "seed": seed,
        "threads": n_threads,
        "workloads": names,
        "plans": sorted(
            {r["plan"] for r in runs} - {"none"}
        ),
        "passed": sum(1 for r in runs if r["ok"]),
        "failed": sum(1 for r in runs if not r["ok"]),
        "all_ok": all(r["ok"] for r in runs),
        "runs": runs,
    }


def _chaos_sweep_cached(
    names: Sequence[str],
    n_threads: int,
    *,
    plans: Optional[Dict[str, FaultPlan]],
    spec: MachineSpec,
    steps: int,
    seed: int,
    cache,
    jobs: Optional[int],
) -> dict:
    """Cache-backed sweep body: two staged spec sweeps (fault-free
    references first — the default battery's timings derive from them —
    then every case), value-identical to the serial path."""
    from repro.runcache.key import RunSpec
    from repro.runcache.sweep import machine_key
    from repro.runcache.sweep import sweep as run_sweep

    mkey = machine_key(spec)

    def _spec(kind, wname, fault_plan=None):
        return RunSpec(
            kind=kind,
            workload=wname,
            steps=steps,
            seed=seed,
            threads=n_threads,
            machine=mkey,
            fault_plan=fault_plan,
            options={"gc_model": "chaos"},
        )

    ref_specs = {name: _spec("chaos_ref", name) for name in names}
    ref_result = run_sweep(list(ref_specs.values()), cache, jobs=jobs)

    order: List[tuple] = []  # (workload, plan-name, spec)
    for name in names:
        t0 = ref_result.artifact_for(ref_specs[name])["sim_seconds"]
        battery = (
            plans
            if plans is not None
            else default_plans(t0, n_threads, spec.n_pus)
        )
        cases: Dict[str, Optional[FaultPlan]] = {"none": None}
        cases.update(battery)
        for pname, plan in cases.items():
            order.append((
                name,
                pname,
                _spec(
                    "chaos_case", name,
                    plan.to_dict() if plan is not None else None,
                ),
            ))
    case_result = run_sweep([s for _, _, s in order], cache, jobs=jobs)

    runs: List[dict] = []
    for (name, pname, _cspec), case in zip(
        order, case_result.artifacts
    ):
        case = dict(case)  # cached artifacts may be shared; never mutate
        case["plan"] = pname
        runs.append(case)
    return _chaos_payload(spec, steps, seed, n_threads, list(names), runs)


def render_chaos(payload: dict) -> str:
    """ASCII summary of a chaos sweep (the ``repro chaos`` output)."""
    lines = [
        f"chaos sweep on simulated {payload['machine']} "
        f"({payload['threads']} threads, {payload['steps']} steps): "
        f"{payload['passed']} passed, {payload['failed']} failed"
    ]
    header = (
        f"{'workload':<10}{'plan':<15}{'ok':<5}{'determ.':<9}"
        f"{'reissued':<10}{'dead':<6}{'slowdown':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for r in payload["runs"]:
        if not r.get("completed", False):
            lines.append(
                f"{r['workload']:<10}{r['plan']:<15}FAIL "
                f"{r.get('error', 'did not complete')}"
            )
            continue
        lines.append(
            f"{r['workload']:<10}{r['plan']:<15}"
            f"{'ok' if r['ok'] else 'FAIL':<5}"
            f"{'yes' if r['deterministic'] else 'NO':<9}"
            f"{len(r['reissued']):<10}{len(r['dead_workers']):<6}"
            f"{r['slowdown']:>8.2f}x"
        )
    return "\n".join(lines)
