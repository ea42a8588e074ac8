"""The tool-accuracy leaderboard: every modeled profiler, ranked.

§IV–V's methodological finding is that every 2010 tool misled in its
own way — but the paper could only describe the failures qualitatively.
The simulated machine turns each failure into a number: every modeled
tool runs against the same zero-observer-effect ground truth, and its
*displayed-vs-true error* becomes one scalar per (workload, machine)
cell.  Aggregated over the full grid, the tools rank:

================== ====================================================
tool               error metric
================== ====================================================
visualvm-1s        per-thread running-time relative error (1 s samples)
vtune-5ms          same, at VTune's 5 ms period
jamon-monitors     observer effect: |measured/true - 1| under monitors
visualvm-instr     observer effect under 4x per-method instrumentation
shark-onecore      TV distance of core-0-only vs all-core time profile
sampling-yieldpt   TV distance of yield-point-biased vs true hot methods
heapviewer         site-attribution mass the class histogram cannot place
jxperf             TV distance of watchpoint-sampled vs exact wasteful ops
timer-outside      per-phase distortion, timers outside the barrier
timer-free         per-phase distortion, free-running timers
timer-sync         per-phase distortion, barrier-synced timers
================== ====================================================

All metrics are dimensionless and 0-is-perfect, so one ranking is
meaningful; each row still names its metric because they measure
different failure modes.  Cells are content-addressed ``toolerror``
specs executed through :func:`repro.runcache.sweep`, so a repeated
leaderboard run is served warm from the cache.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table

#: the paper's tool sampling periods (VisualVM 1 s, VTune 5 ms)
DEFAULT_PERIODS: Tuple[float, ...] = (1.0, 0.005)

DEFAULT_WORKLOADS: Tuple[str, ...] = ("salt", "nanocar", "Al-1000")
DEFAULT_MACHINES: Tuple[str, ...] = ("i7-920", "e5450x2", "x7560x4")

#: payload schema stamp of :func:`leaderboard_payload`
TOOLERROR_SCHEMA = "repro.toolerror/1"


def toolerror_cell(
    workload: str,
    threads: int,
    machine: str,
    *,
    seed: int = 0,
    periods: Sequence[float] = DEFAULT_PERIODS,
    trace: Sequence,
    fault_plan=None,
) -> dict:
    """Score every modeled tool on one (workload, machine) cell of a
    captured ``trace``, whose length is the cell's step count.

    Returns a JSON-able dict: per-tool ``{error, metric, detail}`` plus
    the JXPerf wasteful-op ranking and the timer-ablation distortions.
    The ground-truth replay runs traced (zero observer effect); the
    intrusive tools re-run the same captured physics on fresh machines.
    ``fault_plan`` injects the same simulated faults into every run of
    the cell — ground truth and tools alike — so the errors measure how
    each tool copes with a *perturbed* execution, not a different one.
    """
    from repro.core.simulate import SimulatedParallelRun, trace_atoms
    from repro.jvm.gc import AllocationRecorder
    from repro.jvm.layout import VECTOR3_LAYOUT, atom_object_graph
    from repro.machine import MACHINES, SimMachine
    from repro.obs.compare import sampler_error_rows
    from repro.obs.tracer import Tracer
    from repro.perftools import (
        GroundTruthTimeline,
        HeapViewer,
        JaMonInstrumentation,
        JxPerf,
        VisualVmCpuInstrumentation,
        YieldPointProfiler,
        ablate_timers,
        access_stream_for_trace,
        class_blind_error,
        distribution_error,
        exact_classify,
        profiler_disagreement,
        true_hot_methods,
    )
    from repro.workloads import resolve_workload

    name = resolve_workload(workload)
    spec = MACHINES[machine]
    # the capture carries the atom count: a replay builds no workload
    n_atoms = trace_atoms(trace)

    fault_kwargs = (
        {} if fault_plan is None else {"fault_plan": fault_plan}
    )
    base = SimMachine(spec, seed=seed)
    tracer = Tracer().attach(base.sim)
    res = SimulatedParallelRun(
        trace, n_atoms, base, threads, name="wl", **fault_kwargs
    ).run()
    tracer.detach()
    spans = tracer.task_spans()
    windows = [w for w in tracer.phase_windows() if w.complete]
    truth = GroundTruthTimeline(base.scheduler.trace.events)
    workers = [f"wl-pool-worker-{i}" for i in range(threads)]

    tools: Dict[str, dict] = {}

    # -- thread-state samplers (VisualVM 1 s / VTune 5 ms) ------------------
    for row in sampler_error_rows(truth, workers, periods):
        tools[row.tool] = {
            "error": row.run_rel_error,
            "metric": "running-time relative error",
            "detail": (
                f"missed {row.missed_changes * 100:.0f}% of state "
                f"changes at {row.period:g}s"
            ),
        }

    # -- intrusive tools: the observer effect is the error ------------------
    def rerun(factory):
        m = SimMachine(spec, seed=seed)
        instr = factory(m)
        rr = SimulatedParallelRun(
            trace, n_atoms, m, threads, instrumentation=instr,
            name="wl", **fault_kwargs
        ).run()
        return instr, rr

    jamon, jam_res = rerun(lambda m: JaMonInstrumentation(m))
    tools["jamon-monitors"] = {
        "error": abs(jam_res.sim_seconds / res.sim_seconds - 1.0),
        "metric": "observer-effect |slowdown - 1|",
        "detail": (
            f"monitor contention {jamon.contention_ratio * 100:.0f}%"
        ),
    }
    vvm, vvm_res = rerun(
        lambda m: VisualVmCpuInstrumentation(m, agent_duration=1.0)
    )
    tools["visualvm-instr"] = {
        "error": abs(vvm_res.sim_seconds / res.sim_seconds - 1.0),
        "metric": "observer-effect |slowdown - 1|",
        "detail": f"{vvm.inflation:g}x per-method inflation",
    }

    # -- shark: only one core's timeline at a time (§IV-C) ------------------
    true_hot = _normalize(true_hot_methods(base))
    per_core = _per_core_method_seconds(base)
    busy_pu = max(
        per_core, key=lambda pu: sum(per_core[pu].values()), default=0
    ) if per_core else 0
    shark_view = _normalize(per_core.get(busy_pu, {}))
    tools["shark-onecore"] = {
        "error": profiler_disagreement(shark_view, true_hot),
        "metric": "one-core-only vs all-core profile TV distance",
        "detail": (
            f"{len(shark_view)} methods visible on PU {busy_pu} "
            "(the busiest)"
        ),
    }

    # -- yield-point sampling bias (§VI-B) ----------------------------------
    ypp = YieldPointProfiler(seed=seed).profile(base)
    tools["sampling-yieldpt"] = {
        "error": profiler_disagreement(ypp, true_hot),
        "metric": "yield-point vs true hot-method TV distance",
        "detail": "hits ~ executions, not durations",
    }

    # -- wasteful memory ops: exact truth, heapviewer, JXPerf ---------------
    stream = access_stream_for_trace(trace, n_atoms, seed=seed)
    exact = exact_classify(stream)
    jx = JxPerf(seed=seed)
    estimate = jx.profile(stream)
    tools["jxperf"] = {
        "error": distribution_error(estimate, exact),
        "metric": "sampled vs exact wasteful-op TV distance",
        "detail": (
            f"top site: {estimate.top_site() or '(none)'}; "
            f"{jx.samples_taken} samples, {jx.traps} traps"
        ),
    }

    recorder = AllocationRecorder()
    for cls, size in atom_object_graph(n_atoms):
        recorder.record(cls, size, tenured=True)
    for n_terms in stream.emitted_terms:
        recorder.record(
            VECTOR3_LAYOUT.class_name,
            VECTOR3_LAYOUT.instance_bytes,
            count=2 * n_terms,
        )
    viewer = HeapViewer(recorder)
    dom_class, dom_frac = viewer.dominant_class()
    tools["heapviewer"] = {
        "error": class_blind_error(exact),
        "metric": "unattributable wasteful-op mass (TV distance)",
        "detail": (
            f"live view: {dom_frac * 100:.0f}% {dom_class}, "
            "no site attribution"
        ),
    }

    # -- timer-placement ablation -------------------------------------------
    ablation = ablate_timers(spans, windows, threads)
    timers = ablation.distortions()
    for variant, distortion in timers.items():
        row = ablation.row(variant)
        tools[variant] = {
            "error": distortion,
            "metric": "per-phase time distortion",
            "detail": f"worst phase: {row.worst_phase or '(none)'}",
        }

    return {
        "workload": name,
        "machine": machine,
        "machine_name": spec.name,
        "threads": threads,
        "steps": len(trace),
        "seed": seed,
        "true_seconds": res.sim_seconds,
        "tools": tools,
        "jxperf": {
            "top_site": exact.top_site(),
            "top_class": stream.site_classes.get(
                exact.top_site() or "", ""
            ),
            "sampled_top_site": estimate.top_site(),
            "dead_store": exact.total("dead_store"),
            "silent_store": exact.total("silent_store"),
            "redundant_load": exact.total("redundant_load"),
        },
        "timers": timers,
    }


def _per_core_method_seconds(machine) -> Dict[int, Dict[str, float]]:
    """Per-PU per-method executed seconds — what Shark shows one core
    at a time.  An analyst points it at the busiest core and still only
    sees that core's slice of the program."""
    open_runs: Dict[str, Tuple[float, int, str]] = {}
    totals: Dict[int, Dict[str, float]] = {}
    for time, thread, ev_pu, what in machine.scheduler.trace.events:
        if what.startswith("run"):
            open_runs[thread] = (time, ev_pu, what.partition(":")[2])
        elif what in ("done", "preempt") and thread in open_runs:
            start, pu, label = open_runs.pop(thread)
            key = label or "(unlabeled)"
            per = totals.setdefault(pu, {})
            per[key] = per.get(key, 0.0) + (time - start)
    return totals


def _normalize(dist: Dict[str, float]) -> Dict[str, float]:
    total = sum(dist.values())
    if total <= 0:
        return {}
    return {k: v / total for k, v in dist.items()}


@dataclass
class LeaderboardRow:
    """One ranked tool, aggregated over every grid cell."""

    rank: int
    tool: str
    mean_error: float
    worst_error: float
    metric: str
    cells: int


@dataclass
class LeaderboardResult:
    """The full ranking plus the per-cell raw data behind it."""

    rows: List[LeaderboardRow]
    cells: List[dict]
    workloads: List[str]
    machines: List[str]
    threads: int
    steps: int
    seed: int
    #: run-cache stats of the sweep that produced the cells
    hit_rate: float = 0.0
    jobs: int = 1
    extras: Dict[str, dict] = field(default_factory=dict)

    def row(self, tool: str) -> LeaderboardRow:
        """The ranked row of one tool; KeyError if it never scored."""
        for r in self.rows:
            if r.tool == tool:
                return r
        raise KeyError(f"tool not on leaderboard: {tool!r}")

    def render(self) -> str:
        """ASCII standings plus the JXPerf headline line."""
        header = (
            f"Tool-accuracy leaderboard — "
            f"{len(self.workloads)} workloads x "
            f"{len(self.machines)} machines, {self.threads} threads, "
            f"{self.steps} steps (error: 0 = perfect)"
        )
        table = format_table(
            [
                {
                    "rank": r.rank,
                    "tool": r.tool,
                    "mean err": f"{r.mean_error:.3f}",
                    "worst err": f"{r.worst_error:.3f}",
                    "metric": r.metric,
                }
                for r in self.rows
            ]
        )
        lines = [header, "", table]
        jx = self.extras.get("jxperf")
        if jx:
            lines += [
                "",
                f"JXPerf wasteful-op ranking ({jx.get('workload')}): "
                f"top site {jx.get('top_site')} "
                f"[{jx.get('top_class')}] — "
                f"{jx.get('dead_store', 0):.0f} dead, "
                f"{jx.get('silent_store', 0):.0f} silent, "
                f"{jx.get('redundant_load', 0):.0f} redundant",
            ]
        return "\n".join(lines)


def leaderboard(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    machines: Sequence[str] = DEFAULT_MACHINES,
    *,
    threads: int = 4,
    steps: int = 4,
    seed: int = 0,
    periods: Sequence[float] = DEFAULT_PERIODS,
    cache=None,
    jobs: Optional[int] = None,
) -> LeaderboardResult:
    """Run (or replay from cache) the full grid and rank the tools."""
    from repro.runcache import sweep, toolerror_spec
    from repro.workloads import resolve_workload

    names = [resolve_workload(w) for w in workloads]
    machine_keys = list(machines)
    specs = [
        toolerror_spec(
            w, steps, threads, m, seed=seed, periods=periods
        )
        for w in names
        for m in machine_keys
    ]
    result = sweep(specs, cache, jobs=jobs)
    cells = list(result.artifacts)
    rows, extras = rank_tools(cells)
    return LeaderboardResult(
        rows=rows,
        cells=cells,
        workloads=names,
        machines=machine_keys,
        threads=threads,
        steps=steps,
        seed=seed,
        hit_rate=result.hit_rate,
        jobs=result.jobs,
        extras=extras,
    )


def rank_tools(
    cells: Sequence[dict],
) -> Tuple[List[LeaderboardRow], Dict[str, dict]]:
    """Rank the tools by mean error over ``cells`` (summed in cell
    order; ties by name), plus the extras: the JXPerf showcase and each
    timer placement's mean distortion."""
    per_tool: Dict[str, List[float]] = {}
    metric: Dict[str, str] = {}
    for cell in cells:
        for tool, info in cell["tools"].items():
            per_tool.setdefault(tool, []).append(float(info["error"]))
            metric[tool] = info["metric"]
    ranked = sorted(
        per_tool.items(), key=lambda kv: (_mean(kv[1]), kv[0])
    )
    rows = [
        LeaderboardRow(
            rank=i + 1,
            tool=tool,
            mean_error=_mean(errors),
            worst_error=max(errors),
            metric=metric[tool],
            cells=len(errors),
        )
        for i, (tool, errors) in enumerate(ranked)
    ]

    extras: Dict[str, dict] = {}
    jx_cell = _jxperf_showcase(cells)
    if jx_cell is not None:
        extras["jxperf"] = {
            "workload": jx_cell["workload"], **jx_cell["jxperf"]
        }
    timer_means: Dict[str, List[float]] = {}
    for cell in cells:
        for variant, distortion in cell["timers"].items():
            timer_means.setdefault(variant, []).append(distortion)
    extras["timers"] = {
        v: _mean(d) for v, d in sorted(timer_means.items())
    }
    return rows, extras


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _jxperf_showcase(cells: List[dict]) -> Optional[dict]:
    """The Al-1000 cell (the paper's churn-dominated workload), else
    the first cell — the one the headline JXPerf ranking quotes."""
    for cell in cells:
        if cell["workload"] == "Al-1000":
            return cell
    return cells[0] if cells else None


# -- fault-aware leaderboard (does a straggler fool each profiler?) ----------

#: payload schema stamp for the faulted-cell comparison
FAULT_TOOLERROR_SCHEMA = "repro.toolerror_faults/1"


@dataclass
class FaultImpactRow:
    """One tool's rank under faults vs fault-free."""

    tool: str
    clean_rank: int
    fault_rank: int
    clean_error: float
    fault_error: float
    metric: str

    @property
    def rank_shift(self) -> int:
        """Positive = the tool *looks better* under faults (it climbed
        the standings while the execution got worse — fooled)."""
        return self.clean_rank - self.fault_rank

    @property
    def error_delta(self) -> float:
        return self.fault_error - self.clean_error

    @property
    def fooled(self) -> bool:
        return self.rank_shift != 0


@dataclass
class FaultLeaderboardResult:
    """Clean-vs-faulted tool ranking on one cell."""

    rows: List[FaultImpactRow]
    workload: str
    machine: str
    threads: int
    steps: int
    seed: int
    plan: dict
    true_seconds: float
    faulted_seconds: float
    hit_rate: float = 0.0
    jobs: int = 1

    @property
    def fooled(self) -> List[str]:
        return [r.tool for r in self.rows if r.fooled]

    def row(self, tool: str) -> FaultImpactRow:
        for r in self.rows:
            if r.tool == tool:
                return r
        raise KeyError(f"tool not on fault leaderboard: {tool!r}")

    def render(self) -> str:
        slowdown = (
            self.faulted_seconds / self.true_seconds
            if self.true_seconds
            else 0.0
        )
        header = (
            f"Fault-aware leaderboard — {self.workload} x "
            f"{self.threads} threads on {self.machine}, "
            f"plan '{self.plan.get('name', '?')}' "
            f"(true runtime {slowdown:.2f}x fault-free)"
        )
        table = format_table(
            [
                {
                    "tool": r.tool,
                    "clean rank": r.clean_rank,
                    "fault rank": r.fault_rank,
                    "shift": f"{r.rank_shift:+d}" if r.rank_shift else "0",
                    "clean err": f"{r.clean_error:.3f}",
                    "fault err": f"{r.fault_error:.3f}",
                    "fooled": "YES" if r.fooled else "",
                }
                for r in sorted(self.rows, key=lambda r: r.fault_rank)
            ]
        )
        fooled = self.fooled
        summary = (
            f"{len(fooled)}/{len(self.rows)} tools change rank under "
            f"the injected straggler: {', '.join(sorted(fooled))}"
            if fooled
            else "no tool changes rank under the injected straggler"
        )
        return "\n".join([header, "", table, "", summary])


def straggler_plan(true_seconds: float):
    """The chaos harness's straggler shape, scaled to one cell's
    fault-free runtime: PU 1 runs at 40% speed for 2x the run."""
    from repro.faults.plan import FaultPlan, Straggler

    return FaultPlan(
        name="straggler",
        faults=(
            Straggler(
                start=0.05 * true_seconds,
                duration=2.0 * true_seconds,
                pu=1,
                factor=0.4,
            ),
        ),
    )


def _cell_ranks(cell: dict) -> Dict[str, int]:
    ranked = sorted(
        cell["tools"].items(),
        key=lambda kv: (float(kv[1]["error"]), kv[0]),
    )
    return {tool: i + 1 for i, (tool, _info) in enumerate(ranked)}


def fault_leaderboard(
    workload: str = "Al-1000",
    machine: str = "i7-920",
    *,
    threads: int = 4,
    steps: int = 4,
    seed: int = 0,
    periods: Sequence[float] = DEFAULT_PERIODS,
    cache=None,
    jobs: Optional[int] = None,
) -> FaultLeaderboardResult:
    """Score every tool on one cell twice — fault-free and with an
    injected straggler scaled to the measured runtime — and report the
    rank shifts.  A tool whose standing *improves* while the execution
    degrades is being fooled by the fault (ROADMAP item 5).

    Two sweeps because the plan depends on the fault-free
    ``true_seconds``; both cells are content-addressed, so repeats are
    served warm.
    """
    from repro.runcache import sweep, toolerror_spec
    from repro.workloads import resolve_workload

    name = resolve_workload(workload)
    clean_spec = toolerror_spec(
        name, steps, threads, machine, seed=seed, periods=periods
    )
    clean_result = sweep([clean_spec], cache, jobs=jobs)
    clean_cell = clean_result.artifacts[0]

    plan = straggler_plan(clean_cell["true_seconds"])
    fault_spec = toolerror_spec(
        name, steps, threads, machine, seed=seed, periods=periods,
        fault_plan=plan,
    )
    fault_result = sweep([fault_spec], cache, jobs=jobs)
    fault_cell = fault_result.artifacts[0]

    clean_ranks = _cell_ranks(clean_cell)
    fault_ranks = _cell_ranks(fault_cell)
    rows = [
        FaultImpactRow(
            tool=tool,
            clean_rank=clean_ranks[tool],
            fault_rank=fault_ranks.get(tool, len(fault_ranks) + 1),
            clean_error=float(clean_cell["tools"][tool]["error"]),
            fault_error=float(
                fault_cell["tools"].get(tool, {}).get("error", 0.0)
            ),
            metric=clean_cell["tools"][tool]["metric"],
        )
        for tool in sorted(clean_ranks)
    ]
    lookups = len(clean_result.hit_flags) + len(fault_result.hit_flags)
    hits = clean_result.hits + fault_result.hits
    return FaultLeaderboardResult(
        rows=rows,
        workload=name,
        machine=machine,
        threads=threads,
        steps=steps,
        seed=seed,
        plan=plan.to_dict(),
        true_seconds=float(clean_cell["true_seconds"]),
        faulted_seconds=float(fault_cell["true_seconds"]),
        hit_rate=hits / lookups if lookups else 0.0,
        jobs=max(clean_result.jobs, fault_result.jobs),
    )


def fault_leaderboard_payload(result: FaultLeaderboardResult) -> dict:
    """The ``repro.toolerror_faults/1`` JSON payload."""
    return {
        "schema": FAULT_TOOLERROR_SCHEMA,
        "workload": result.workload,
        "machine": result.machine,
        "threads": result.threads,
        "steps": result.steps,
        "seed": result.seed,
        "plan": dict(result.plan),
        "true_seconds": result.true_seconds,
        "faulted_seconds": result.faulted_seconds,
        "fooled": sorted(result.fooled),
        "rows": [
            {
                "tool": r.tool,
                "clean_rank": r.clean_rank,
                "fault_rank": r.fault_rank,
                "rank_shift": r.rank_shift,
                "clean_error": r.clean_error,
                "fault_error": r.fault_error,
                "error_delta": r.error_delta,
                "fooled": r.fooled,
                "metric": r.metric,
            }
            for r in sorted(result.rows, key=lambda r: r.fault_rank)
        ],
        "cache": {"hit_rate": result.hit_rate, "jobs": result.jobs},
    }


def leaderboard_payload(result: LeaderboardResult) -> dict:
    """The ``repro.toolerror/1`` JSON payload for one leaderboard."""
    runs = [
        {
            "tool": tool,
            "workload": cell["workload"],
            "machine": cell["machine"],
            "threads": cell["threads"],
            "error": float(info["error"]),
            "metric": info["metric"],
            "detail": info.get("detail", ""),
        }
        for cell in result.cells
        for tool, info in sorted(cell["tools"].items())
    ]
    return {
        "schema": TOOLERROR_SCHEMA,
        "machine": result.machines[0] if result.machines else "",
        "machines": list(result.machines),
        "workloads": list(result.workloads),
        "threads": result.threads,
        "steps": result.steps,
        "seed": result.seed,
        "tools": [r.tool for r in result.rows],
        "leaderboard": [asdict(r) for r in result.rows],
        "runs": runs,
        "jxperf": dict(result.extras.get("jxperf", {})),
        "timers": dict(result.extras.get("timers", {})),
        "cache": {"hit_rate": result.hit_rate, "jobs": result.jobs},
    }
