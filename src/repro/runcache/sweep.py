"""Executing run specs — one at a time, through the cache, or a sweep.

:func:`execute_spec` is the single place a :class:`RunSpec` is turned
back into a live simulation; :func:`run_and_store` memoizes it through
a :class:`RunCache`; :func:`prepare_unit` wraps one spec, or one
homogeneous capture batch for one lockstep engine, as a unit of work.
:func:`sweep` takes a whole list of specs, dedupes them against the
cache, and hands the misses to the supervisor
(:func:`repro.runcache.resilience.supervise`), the one executor every
sweep uses — in-process, or across a process pool of ``jobs`` workers.

On top sit the assemblers: :func:`attribute_grid` (a swept grid's
attributions; :func:`attribution_sweep`'s payload, ``repro attribute``
and ``repro report`` use it) and the chaos harness hooks of
:func:`repro.faults.chaos.chaos_sweep`.  The cache changes wall-clock,
never results.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.runcache import resilience
from repro.runcache.key import RunSpec, _as_params
from repro.runcache.resilience import (
    NULL_JOURNAL,
    Quarantined,
    SupervisionPolicy,
    SweepJournal,
)
from repro.runcache.store import RunCache, dumps_artifacts
from repro.telemetry import runtime as telemetry_runtime


# -- spec builders -----------------------------------------------------------


def capture_spec(workload: str, steps: int, seed: int = 0) -> RunSpec:
    """Spec for one physics capture (the expensive part).

    ``seed`` seeds the workload builder, so one workload family yields
    arbitrarily many independent runs — what a lockstep engine
    batches."""
    from repro.workloads import resolve_workload

    return RunSpec(
        kind="capture",
        workload=resolve_workload(workload),
        steps=steps,
        seed=seed,
    )


def observe_spec(
    workload: str,
    steps: int,
    threads: int,
    machine: str,
    *,
    seed: int = 0,
    params=None,
    fault_plan=None,
    affinities=None,
    master_affinity=None,
    **options,
) -> RunSpec:
    """Spec for one traced + classified replay (attribution input).

    ``options`` may only name what the observe executor reads
    (:data:`OBSERVE_OPTIONS`): a misspelt option would otherwise hash
    into its own cache entry and replay the defaults.  ``load`` names a
    :data:`~repro.machine.background.LOAD_SCENARIOS` entry."""
    from repro.machine.background import LOAD_SCENARIOS
    from repro.runcache.key import params_to_spec
    from repro.workloads import resolve_workload

    unknown = sorted(set(options) - OBSERVE_OPTIONS)
    if unknown:
        raise ValueError(
            f"unknown observe option(s) {unknown}; "
            f"choose from {sorted(OBSERVE_OPTIONS)}"
        )
    load = options.get("load")
    if load is not None and load not in LOAD_SCENARIOS:
        raise ValueError(
            f"unknown load scenario {load!r}; "
            f"choose from {sorted(LOAD_SCENARIOS)}"
        )
    return RunSpec(
        kind="observe",
        workload=resolve_workload(workload),
        steps=steps,
        seed=seed,
        threads=threads,
        machine=machine,
        params=params_to_spec(params) if params is not None else None,
        fault_plan=(
            fault_plan.to_dict() if fault_plan is not None else None
        ),
        affinities=(
            tuple(tuple(a) for a in affinities)
            if affinities is not None
            else None
        ),
        master_affinity=(
            tuple(master_affinity) if master_affinity is not None else None
        ),
        options=options,
    )


def trace_spec(
    workload: str, steps: int, threads: int, machine: str, seed: int = 0
) -> RunSpec:
    """Spec for the ``repro trace`` artifact bundle."""
    from repro.workloads import resolve_workload

    return RunSpec(
        kind="trace",
        workload=resolve_workload(workload),
        steps=steps,
        seed=seed,
        threads=threads,
        machine=machine,
    )


def toolerror_spec(
    workload: str,
    steps: int,
    threads: int,
    machine: str,
    *,
    seed: int = 0,
    periods: Sequence[float] = (1.0, 0.005),
    fault_plan=None,
) -> RunSpec:
    """Spec for one tool-accuracy leaderboard cell (all modeled tools
    scored against ground truth on one workload x machine point),
    optionally with a fault plan injected into the *measured* run."""
    from repro.workloads import resolve_workload

    return RunSpec(
        kind="toolerror",
        workload=resolve_workload(workload),
        steps=steps,
        seed=seed,
        threads=threads,
        machine=machine,
        fault_plan=(
            fault_plan.to_dict() if fault_plan is not None else None
        ),
        options={"periods": [float(p) for p in periods]},
    )


# -- executing one spec ------------------------------------------------------


def _machine_spec(name: str):
    from repro.machine import MACHINES

    try:
        return MACHINES[name]
    except KeyError:
        raise ValueError(
            f"spec names unknown machine {name!r}; "
            f"choose from {sorted(MACHINES)}"
        ) from None


def machine_key(spec: Union[str, object]) -> str:
    """The ``MACHINES`` registry key for a spec or key (specs carry the
    key, not the display name, so digests stay registry-stable)."""
    from repro.machine import MACHINES

    if isinstance(spec, str):
        _machine_spec(spec)  # validate
        return spec
    for key, value in MACHINES.items():
        if value is spec or value == spec:
            return key
    raise ValueError(f"machine spec {spec!r} is not in MACHINES")


#: options :func:`_run_kwargs` hands to the replay unchanged
_PASSTHROUGH_OPTIONS = (
    "partition", "repeat", "fuse_rebuild",
    "assign", "chunk", "chunk_factor",
    "steal_policy", "steal_cost_cycles", "pop_overhead_cycles",
)
#: every option the observe executor reads
OBSERVE_OPTIONS = frozenset(
    ("queue_mode", "gc_model", "load") + _PASSTHROUGH_OPTIONS
)


def _run_kwargs(spec: RunSpec) -> Dict[str, Any]:
    """Replay kwargs encoded in a spec's params/plan/pinning/options."""
    from repro.concurrent import QueueMode
    from repro.faults.plan import FaultPlan

    opts = dict(spec.options)
    kwargs: Dict[str, Any] = {}
    if spec.params is not None:
        kwargs["params"] = _as_params(spec.params)
    if spec.fault_plan is not None:
        kwargs["fault_plan"] = FaultPlan.from_dict(spec.fault_plan)
    if spec.affinities is not None:
        kwargs["affinities"] = [list(a) for a in spec.affinities]
    if spec.master_affinity is not None:
        kwargs["master_affinity"] = list(spec.master_affinity)
    if "queue_mode" in opts:
        kwargs["queue_mode"] = QueueMode(opts["queue_mode"])
    for name in _PASSTHROUGH_OPTIONS:
        if name in opts:
            kwargs[name] = opts[name]
    if opts.get("gc_model") == "chaos":
        from repro.faults.chaos import _chaos_gc_model

        kwargs["gc_model"] = _chaos_gc_model()
    return kwargs


def nested_capture(spec: RunSpec) -> Optional[RunSpec]:
    """The capture spec a non-capture spec's executor loads (its one
    nested dependency); None for a capture spec.

    The supervisor schedules against this too, so a sweep computes each
    nested capture once (see :mod:`repro.runcache.resilience`)."""
    if spec.kind == "capture":
        return None
    return capture_spec(spec.workload, spec.steps)


def _load_capture(cache: Optional[RunCache], spec: RunSpec):
    """A capture artifact through the cache, or a fresh capture without
    one."""
    if cache is None:
        return _execute_capture(spec)
    return run_and_store(cache, spec)[0]


def cached_capture(
    cache: Optional[RunCache], workload: str, steps: int
):
    """The captured physics trace for a workload, through the cache.

    ``cache=None`` degrades to a plain :func:`capture_trace` call, so
    callers need no branching.
    """
    return _load_capture(cache, capture_spec(workload, steps))


def _execute_capture(spec: RunSpec):
    from repro.core.simulate import capture_trace
    from repro.workloads import BUILDERS

    return capture_trace(BUILDERS[spec.workload](seed=spec.seed), spec.steps)


def _execute_observe(spec: RunSpec, cache: Optional[RunCache]):
    from repro.core.simulate import trace_atoms
    from repro.obs.attribution import observe_run

    # the capture carries the atom count, and a BUILDERS key is its
    # workload's name: the replay builds no workload
    trace = _load_capture(cache, nested_capture(spec))
    obs = observe_run(
        trace,
        trace_atoms(trace),
        _machine_spec(spec.machine),
        spec.threads,
        seed=spec.seed,
        name=spec.workload,
        workload=spec.workload,
        load=spec.options.get("load"),
        **_run_kwargs(spec),
    )
    # the live SimMachine is neither picklable nor an artifact anyone
    # consumes downstream of attribution — strip it before storage
    if obs.result is not None:
        obs.result.machine = None
    return obs


def _execute_trace(spec: RunSpec, cache: Optional[RunCache]) -> dict:
    """The ``repro trace`` bundle: trace/metrics file bytes + summary."""
    from repro.core.simulate import SimulatedParallelRun, trace_atoms
    from repro.machine.machine import SimMachine
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        collect_executor_metrics,
        collect_machine_metrics,
        collect_span_metrics,
        write_chrome_trace,
        write_metrics,
    )
    from repro.perftools import GroundTruthTimeline

    machine_spec = _machine_spec(spec.machine)
    trace = _load_capture(cache, nested_capture(spec))
    machine = SimMachine(machine_spec, seed=spec.seed)
    tracer = Tracer().attach(machine.sim)
    run = SimulatedParallelRun(
        trace, trace_atoms(trace), machine, spec.threads, name="wl"
    )
    result = run.run()
    tracer.detach()
    spans = tracer.task_spans()
    truth = GroundTruthTimeline(machine.scheduler.trace.events)

    files: Dict[str, bytes] = {}
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp:
        trace_path = os.path.join(tmp, "trace.json")
        n_events = write_chrome_trace(trace_path, spans, timeline=truth)
        registry = MetricsRegistry()
        collect_machine_metrics(machine, registry)
        collect_executor_metrics(run.pool, registry)
        collect_span_metrics(spans, registry)
        json_path = os.path.join(tmp, "metrics.json")
        csv_path = os.path.join(tmp, "metrics.csv")
        write_metrics(json_path, csv_path, registry)
        for path in (trace_path, json_path, csv_path):
            with open(path, "rb") as fh:
                files[os.path.basename(path)] = fh.read()

    complete = [s for s in spans if s.complete]
    lines = [
        f"traced {spec.workload}: {result.steps} steps x "
        f"{spec.threads} threads on simulated {machine_spec.name}",
        f"simulated runtime {result.sim_seconds * 1e3:.3f} ms, "
        f"{len(tracer.events)} bus events, {len(spans)} task spans "
        f"({len(complete)} complete)",
    ]
    by_label: Dict[str, list] = {}
    for s in complete:
        label = s.label or "task"
        agg = by_label.setdefault(label, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += s.exec_time
        agg[2] += s.queue_wait
    for label in sorted(by_label):
        n, exec_t, wait_t = by_label[label]
        lines.append(
            f"  {label:<12} {n:>4} tasks  exec {exec_t * 1e3:8.3f} ms  "
            f"mean queue wait {wait_t / n * 1e6:8.1f} us"
        )
    for llc in machine.llc_states:
        total = llc.bytes_hit + llc.bytes_missed
        ratio = llc.bytes_hit / total if total else 0.0
        lines.append(
            f"  LLC {llc.llc_id}: hit ratio {ratio * 100:.1f}% "
            f"({llc.bytes_hit / 2**20:.1f} MB hit, "
            f"{llc.bytes_missed / 2**20:.1f} MB missed)"
        )
    migrations = sum(result.migrations.values())
    lines.append(f"  thread migrations: {migrations}")
    return {
        "files": files,
        "summary": "\n".join(lines),
        "n_trace_events": n_events,
    }


def _execute_chaos_ref(spec: RunSpec, cache: Optional[RunCache]) -> dict:
    """Fault-free reference replay: the duration chaos plans scale by."""
    from repro.core.simulate import SimulatedParallelRun, trace_atoms
    from repro.machine.machine import SimMachine

    trace = _load_capture(cache, nested_capture(spec))
    machine = SimMachine(_machine_spec(spec.machine), seed=spec.seed)
    kwargs = _run_kwargs(spec)
    ref = SimulatedParallelRun(
        trace, trace_atoms(trace), machine, spec.threads,
        name=spec.workload, **kwargs,
    ).run()
    return {"sim_seconds": ref.sim_seconds}


def _execute_chaos_case(spec: RunSpec, cache: Optional[RunCache]) -> dict:
    from repro.concurrent import QueueMode
    from repro.faults.chaos import run_chaos_case
    from repro.faults.plan import FaultPlan

    trace = _load_capture(cache, nested_capture(spec))
    plan = (
        FaultPlan.from_dict(spec.fault_plan)
        if spec.fault_plan is not None
        else None
    )
    opts = dict(spec.options)
    return run_chaos_case(
        spec.workload,
        plan,
        spec.threads,
        spec=_machine_spec(spec.machine),
        steps=spec.steps,
        seed=spec.seed,
        trace=trace,
        phase_timeout_factor=opts.get("phase_timeout_factor") or 20.0,
        queue_mode=QueueMode(opts.get("queue_mode", "single")),
    )


def _execute_toolerror(spec: RunSpec, cache: Optional[RunCache]) -> dict:
    """One leaderboard cell: every modeled tool's displayed-vs-true
    error on this (workload, machine) point.  The physics capture is
    the only nested dependency, so it routes through the cache."""
    from repro.faults.plan import FaultPlan
    from repro.obs.leaderboard import toolerror_cell

    _machine_spec(spec.machine)  # validate before the expensive part
    trace = _load_capture(cache, nested_capture(spec))
    periods = tuple(spec.options.get("periods") or (1.0, 0.005))
    return toolerror_cell(
        spec.workload,
        spec.threads,
        spec.machine,
        seed=spec.seed,
        periods=periods,
        trace=trace,
        fault_plan=(
            FaultPlan.from_dict(spec.fault_plan)
            if spec.fault_plan is not None
            else None
        ),
    )


_EXECUTORS = {
    "capture": lambda spec, cache: _execute_capture(spec),
    "observe": _execute_observe,
    "trace": _execute_trace,
    "chaos_ref": _execute_chaos_ref,
    "chaos_case": _execute_chaos_case,
    "toolerror": _execute_toolerror,
}


#: what the executors import on first use that this module has not: a
#: pool's parent imports it before it forks (:func:`import_executors`).
#: Every kind may compute a capture: the builders' ``default_rng``
#: loads ``numpy.random``, ``np.unique`` in the LJ set-up loads
#: ``numpy.ma``, and a batch runs through :mod:`repro.ensemble`
_CAPTURE_IMPORTS = (
    "numpy.random", "numpy.ma", "repro.core.simulate", "repro.ensemble",
    "repro.workloads",
)
#: the replay kinds also load the observation, attribution and tool
#: layers (:mod:`repro.obs`) and the fault plans (:mod:`repro.faults`)
_REPLAY_IMPORTS = ("repro.obs", "repro.faults")


def import_executors(kinds) -> None:
    """Import what executing specs of ``kinds`` would import.

    A forked pool worker inherits every module its parent has loaded,
    and pays for any other one itself, in every worker of every sweep;
    imported here, in the parent, it is paid once per process."""
    names = _CAPTURE_IMPORTS
    if set(kinds) - {"capture"}:
        names += _REPLAY_IMPORTS
    for name in names:
        importlib.import_module(name)


def execute_spec(spec: RunSpec, cache: Optional[RunCache] = None):
    """Run a spec from scratch and return its artifact.

    ``cache`` is only consulted for *nested* dependencies (an observe
    spec's physics capture) — the spec itself always executes, which is
    what makes this the verify path's ground truth.
    """
    if "REPRO_PROCESS_FAULTS" in os.environ:  # chaos harness only
        from repro.faults import process as process_faults

        process_faults.execution_fault(spec.label())
    return _EXECUTORS[spec.kind](spec, cache)


def run_and_store(
    cache: RunCache, spec: RunSpec
) -> Tuple[Any, bool]:
    """Memoized execution: ``(artifact, was_hit)``."""
    artifact = cache.get(spec)
    if artifact is not None:
        return artifact, True
    artifact = execute_spec(spec, cache=cache)
    cache.put(spec, artifact)
    return artifact, False


def prepare_unit(
    specs: Sequence[RunSpec],
) -> Callable[[RunCache], List[Any]]:
    """A unit of work as a deferred ``execute(cache) -> artifacts``.

    One spec executes and is stored: the sweep's lookup pass already
    missed it, so it is not looked up again unless an entry has landed
    since — a sibling's nested capture load, or an earlier attempt that
    stored before it died — in which case it goes through
    :func:`run_and_store`.
    Several specs are a capture batch of one workload and step count,
    run by :func:`~repro.ensemble.ensemble_capture`; each run is stored
    under its own digest.
    """
    if len(specs) == 1:
        (spec,) = specs

        def execute(cache: RunCache) -> List[Any]:
            if cache.contains(spec):
                return [run_and_store(cache, spec)[0]]
            artifact = execute_spec(spec, cache=cache)
            cache.put(spec, artifact)
            return [artifact]

        return execute

    def execute_batch(cache: RunCache) -> List[Any]:
        from repro.ensemble import ensemble_capture

        if "REPRO_PROCESS_FAULTS" in os.environ:  # chaos harness only
            from repro.faults import process as process_faults

            for spec in specs:
                process_faults.execution_fault(spec.label())
        artifacts = ensemble_capture(
            specs[0].workload, specs[0].steps, [spec.seed for spec in specs]
        )
        # one pickler for the batch; each blob is stored before the
        # next is encoded
        for spec, data in zip(specs, dumps_artifacts(artifacts)):
            cache.put_bytes(spec, data)
        return artifacts

    return execute_batch


# -- the orchestrator --------------------------------------------------------


@dataclass
class SweepResult:
    """Outcome of one deduped, possibly-parallel sweep."""

    specs: List[RunSpec]
    artifacts: List[Any]
    #: per input spec: True when it was served from the cache
    hit_flags: List[bool]
    jobs: int
    #: distinct digests actually executed (cache misses after dedup)
    executed: List[str] = field(default_factory=list)
    #: True when the misses ran under a fan-out span — across the
    #: process pool, or in-process after the pool degraded
    fanout: bool = False
    #: specs the supervisor gave up on (permanent failures); their
    #: artifact slots hold None
    quarantined: List[Quarantined] = field(default_factory=list)
    #: supervision counters (see :mod:`repro.runcache.resilience`)
    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    #: True when pool failures moved work in-process
    degraded: bool = False
    #: cache hits that were also journaled complete by the interrupted
    #: run this sweep resumed (served with zero re-execution)
    resumed: int = 0
    #: homogeneous capture batches run by one lockstep engine each,
    #: and the runs they covered (see :mod:`repro.ensemble`)
    ensemble_batches: int = 0
    ensemble_runs: int = 0

    @property
    def ok(self) -> bool:
        """True when every spec produced an artifact (nothing
        quarantined) — the full-success exit criterion."""
        return not self.quarantined

    @property
    def hits(self) -> int:
        return sum(self.hit_flags)

    @property
    def misses(self) -> int:
        return len(self.hit_flags) - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / len(self.hit_flags) if self.hit_flags else 0.0

    def artifact_for(self, spec: RunSpec):
        """The artifact of the given (or an equal) spec."""
        for s, a in zip(self.specs, self.artifacts):
            if s == spec:
                return a
        raise KeyError(f"spec not in sweep: {spec.label()}")


def default_jobs() -> int:
    """Worker-pool width: the CPUs *this process may run on*.

    ``os.cpu_count()`` reports the machine's full core count even when
    the process is confined to a subset by cgroups or CPU affinity
    (containers, CI runners), which oversubscribes the pool; the
    scheduling affinity mask is the honest number where available."""
    try:
        return len(os.sched_getaffinity(0)) or (os.cpu_count() or 1)
    except (AttributeError, OSError):  # non-Linux platforms
        return os.cpu_count() or 1


def sweep(
    specs: Sequence[RunSpec],
    cache: Optional[RunCache] = None,
    jobs: Optional[int] = None,
    *,
    journal: Optional[os.PathLike] = None,
    resume: Optional[os.PathLike] = None,
    policy: Optional[SupervisionPolicy] = None,
) -> SweepResult:
    """Dedupe ``specs`` against the cache and execute the misses.

    ``cache=None`` runs against a throwaway :class:`RunCache` in a
    temporary directory, removed when the sweep returns, so a cache-less
    sweep takes the same path as a cached one and only misses.  The
    misses go to the supervisor
    (:func:`repro.runcache.resilience.supervise`) as units of work — a
    homogeneous capture batch runs through one lockstep engine as one
    unit.  More than one unit runs across a ``ProcessPoolExecutor`` of
    ``jobs`` workers (default :func:`default_jobs`) that publish into
    the shared store; a pool that cannot start degrades to in-process.
    A unit whose :func:`nested_capture` another pending pool unit is
    computing is held back until that unit ends or the capture is
    stored, so each capture is computed once.

    Crash safety (see :mod:`repro.runcache.resilience`):

    * ``journal=dir`` appends every submission/start/finish/failure to
      ``dir/sweep-journal.jsonl``;
    * ``resume=dir`` additionally *replays* that journal first —
      digests journaled finished and still cached are served without
      re-execution, previously quarantined digests stay quarantined,
      and journaling continues into the same file;
    * ``policy`` sets retries/timeout/quarantine.  Plain calls get
      :data:`~repro.runcache.resilience.PROPAGATE_POLICY` (first error
      propagates); journaled or resumed sweeps default to the
      supervised :class:`SupervisionPolicy` (bounded retries,
      quarantine instead of raise).

    The caller's heap stays frozen (:func:`gc.freeze`) while the sweep
    runs, so no collection rescans it and the pool workers forked
    meanwhile inherit it frozen; a caller that froze objects of its
    own keeps its freeze as it was.
    """
    if cache is None:
        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
            return sweep(
                specs, RunCache(tmp), jobs,
                journal=journal, resume=resume, policy=policy,
            )
    # unfreezing would thaw a caller's own frozen objects too
    freeze = not gc.get_freeze_count()
    if freeze:
        gc.freeze()
    try:
        return _sweep(specs, cache, jobs, journal, resume, policy)
    finally:
        if freeze:
            gc.unfreeze()


def _sweep(
    specs: Sequence[RunSpec],
    cache: RunCache,
    jobs: Optional[int],
    journal: Optional[os.PathLike],
    resume: Optional[os.PathLike],
    policy: Optional[SupervisionPolicy],
) -> SweepResult:
    """:func:`sweep` against a store."""
    if resume is not None and journal is not None and (
        Path(resume) != Path(journal)
    ):
        raise ValueError("pass either journal= or resume=, not both")
    journal_root = resume if resume is not None else journal
    if policy is None:
        policy = (
            SupervisionPolicy()
            if journal_root is not None
            else resilience.PROPAGATE_POLICY
        )
    prior = (
        resilience.load_journal(resume) if resume is not None else None
    )
    jrnl = (
        SweepJournal(journal_root)
        if journal_root is not None
        else NULL_JOURNAL
    )

    jobs = default_jobs() if jobs is None else max(1, jobs)
    emitter = telemetry_runtime.current()
    quarantined: List[Quarantined] = []
    resumed = 0
    try:
        with emitter.span(
            "sweep", n_specs=len(specs), jobs=jobs,
            resumed=resume is not None,
        ) as sweep_span:
            unique: Dict[str, RunSpec] = {}
            keys: List[str] = []
            for spec in specs:
                key = cache.digest(spec)
                keys.append(key)
                unique.setdefault(key, spec)

            prior_completed = prior.completed if prior else set()
            prior_quarantined = prior.quarantined if prior else {}
            artifacts: Dict[str, Any] = {}
            hit_by_key: Dict[str, bool] = {}
            misses: List[Tuple[str, RunSpec]] = []
            lookup: List[Tuple[str, RunSpec]] = []
            for key, spec in unique.items():
                if key in prior_quarantined:
                    record = prior_quarantined[key]
                    hit_by_key[key] = False
                    quarantined.append(
                        Quarantined(
                            digest=key,
                            label=spec.label(),
                            attempts=int(record.get("attempts", 0)),
                            error=str(record.get("error", "")),
                            carried=True,
                        )
                    )
                else:
                    lookup.append((key, spec))
            # one pass over the store for every spec still wanted
            found = cache._lookup([spec for _, spec in lookup])
            for (key, spec), artifact in zip(lookup, found):
                if artifact is not None:
                    artifacts[key] = artifact
                    hit_by_key[key] = True
                    if key in prior_completed:
                        resumed += 1
                else:
                    hit_by_key[key] = False
                    misses.append((key, spec))

            entries = [
                {
                    "digest": key,
                    "label": spec.label(),
                    "spec": spec.canonical(),
                }
                for key, spec in unique.items()
            ]
            jrnl.begin(entries, jobs=jobs, resumed=resume is not None)

            outcome = (
                resilience.supervise(
                    misses, cache, jobs,
                    policy=policy, journal=jrnl, emitter=emitter,
                )
                if misses
                else resilience.Outcome()
            )
            artifacts.update(outcome.artifacts)
            quarantined.extend(outcome.quarantined)
            result = SweepResult(
                specs=list(specs),
                artifacts=[artifacts.get(k) for k in keys],
                hit_flags=[hit_by_key[k] for k in keys],
                jobs=jobs if outcome.units > 1 else 1,
                executed=outcome.executed,
                fanout=outcome.fanout,
                quarantined=quarantined,
                retries=outcome.retries,
                timeouts=outcome.timeouts,
                pool_restarts=outcome.pool_restarts,
                degraded=outcome.degraded,
                resumed=resumed,
                ensemble_batches=outcome.ensemble_batches,
                ensemble_runs=outcome.ensemble_runs,
            )
            if sweep_span.span_id is not None:
                sweep_span.attrs.update(
                    unique=len(unique),
                    misses=result.misses,
                    fanout=result.fanout,
                    retries=result.retries,
                    quarantined=len(quarantined),
                    degraded=result.degraded,
                    resumed_hits=resumed,
                    ensemble_batches=result.ensemble_batches,
                    ensemble_runs=result.ensemble_runs,
                    # what was swept, and where: ``repro report``'s input
                    store=str(cache.root),
                    specs=json.dumps(entries, separators=(",", ":")),
                )
        jrnl.end(
            executed=len(result.executed), quarantined=len(quarantined),
            resumed=resumed,
        )
    finally:
        jrnl.close()
    return result


# -- sweep assemblers --------------------------------------------------------


def sweep_seconds(
    specs: Sequence[RunSpec], cache: Optional[RunCache] = None
) -> List[float]:
    """Each observe spec's simulated seconds, in order, from one
    :func:`sweep` (the Fig. 1 and Table III grids' driver)."""
    return [obs.result.sim_seconds for obs in sweep(specs, cache).artifacts]


def attribution_specs(
    workloads: Sequence[str],
    threads: Sequence[int],
    machine: str,
    *,
    steps: int,
    seed: int = 0,
) -> List[RunSpec]:
    """An attribution grid: per workload, its capture and an observe at
    1 thread (the baseline) and at each of ``threads``."""
    specs: List[RunSpec] = []
    for name in workloads:
        specs.append(capture_spec(name, steps))
        for n in dict.fromkeys([1, *threads]):
            specs.append(observe_spec(name, steps, n, machine, seed=seed))
    return specs


def attribute_grid(
    specs: Sequence[RunSpec],
    artifacts: Sequence[Any],
    threads: Optional[Sequence[int]] = None,
) -> list:
    """Attribute each workload x thread count (default: every count
    observed) of a swept grid against the workload's 1-thread
    observation.  ``specs`` and ``artifacts`` are parallel; the observe
    specs differ only in workload and threads, and a capture's artifact
    gives its workload's kernel shares."""
    from repro.obs.attribution import attribute_observations

    traces, observed = {}, {}
    for spec, artifact in zip(specs, artifacts):
        if spec.kind == "capture":
            traces[spec.workload] = artifact
        else:
            observed[spec.workload, spec.threads] = artifact
            machine = _machine_spec(spec.machine).name
    if threads is None:
        threads = sorted({n for _, n in observed})
    return [
        attribute_observations(
            observed[name, n], observed[name, 1], traces.get(name),
            machine=machine,
        )
        for name in dict.fromkeys(name for name, _ in observed)
        for n in threads
    ]


def attribution_sweep(
    workloads: Sequence[str] = ("salt", "nanocar", "Al-1000"),
    threads: Sequence[int] = (1, 2, 4, 8),
    *,
    spec: Union[str, object] = "i7-920",
    steps: int = 5,
    seed: int = 0,
    cache: Optional[RunCache] = None,
    jobs: Optional[int] = None,
) -> Tuple[dict, SweepResult]:
    """Attribute every workload x thread count of a grid, through the
    cache: one capture and one 1-thread baseline per workload.

    Returns ``(payload, sweep_result)``: the ``repro.attribution.bench/1``
    payload equals an uncached in-process run's — captures and
    observations come from the cache (or the pool executing the
    misses), and the attribution arithmetic (cheap, pure) is recomputed
    fresh — while the :class:`SweepResult` carries the hit/miss stats.
    """
    from repro.obs.attribution import BENCH_SCHEMA, BUCKETS, result_to_dict
    from repro.workloads import resolve_workload

    key = machine_key(spec)
    names = [resolve_workload(w) for w in workloads]
    result = sweep(
        attribution_specs(names, threads, key, steps=steps, seed=seed),
        cache, jobs=jobs,
    )
    runs = [
        result_to_dict(res)
        for res in attribute_grid(result.specs, result.artifacts, threads)
    ]
    payload = {
        "schema": BENCH_SCHEMA,
        "machine": _machine_spec(key).name,
        "steps": steps,
        "seed": seed,
        "workloads": names,
        "threads": list(threads),
        "buckets": list(BUCKETS),
        "runs": runs,
    }
    return payload, result
