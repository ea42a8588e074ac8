"""Ground truth vs modeled tools: quantify each tool's measurement error.

The original study (§IV) could only *observe* that JaMON serialized the
program, that VisualVM's instrumentation slowed it ~4x, and that 1 s /
5–10 ms thread-state sampling missed the 80–5000 µs work quanta — it
had no perturbation-free reference to measure the error against.  The
simulated machine does: the scheduler trace is an exact zero-overhead
record of every thread's state.  This module replays that ground truth
through the tool models in :mod:`repro.perftools` and reports, per
tool, how far its answer is from the truth:

* **samplers** (VisualVM 1 s, VTune 5 ms): displayed vs true per-thread
  running/waiting seconds, spread (imbalance) distortion, and the
  fraction of real state transitions the sampling period hides;
* **intrusive tools** (JaMON monitors, VisualVM per-method
  instrumentation): the observer effect, i.e. how much the program
  under measurement slows down, plus each tool's own headline numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.core.simulate import (
    SimulatedParallelRun,
    capture_trace,
    trace_atoms,
)
from repro.machine import MACHINES, SimMachine
from repro.perftools.jamon import JaMonInstrumentation
from repro.perftools.sampling import (
    GroundTruthTimeline,
    ThreadState,
    ThreadStateSampler,
)
from repro.perftools.visualvm import VisualVmCpuInstrumentation
from repro.workloads import BUILDERS

#: the paper's tool sampling periods: VisualVM's thread view (1 s) and
#: VTune's thread-state sampling (5 ms)
DEFAULT_PERIODS: Tuple[float, ...] = (1.0, 0.005)

#: intrusive tools the observer-effect pass can re-run
OBSERVER_TOOLS: Tuple[str, ...] = ("jamon-monitors", "visualvm-instr")


def _tool_name(period: float) -> str:
    if period >= 1.0:
        return f"visualvm-{period:g}s"
    return f"vtune-{period * 1e3:g}ms"


@dataclass
class SamplerErrorRow:
    """Measurement error of one thread-state sampler vs ground truth."""

    tool: str
    period: float
    #: mean per-thread |displayed - true| running seconds
    run_abs_error: float
    #: same, relative to total true running time (0 = perfect)
    run_rel_error: float
    #: mean per-thread |displayed - true| waiting seconds
    wait_abs_error: float
    wait_rel_error: float
    #: true vs displayed max-min running-time spread across threads
    true_spread: float
    displayed_spread: float
    #: fraction of real state transitions invisible at this period
    missed_changes: float


@dataclass
class ObserverEffectRow:
    """Perturbation one intrusive tool inflicts on the measured run."""

    tool: str
    true_seconds: float
    measured_seconds: float
    #: measured / true runtime — 1.0 means zero observer effect
    slowdown: float
    detail: str = ""


@dataclass
class ToolErrorReport:
    """Full per-tool error report for one benchmark run."""

    workload: str
    steps: int
    n_threads: int
    machine: str
    true_seconds: float
    sampler_rows: List[SamplerErrorRow] = field(default_factory=list)
    observer_rows: List[ObserverEffectRow] = field(default_factory=list)

    def render(self) -> str:
        """ASCII report: sampler error table + observer-effect table."""
        out = [
            f"Tool-error report — {self.workload}, {self.steps} steps, "
            f"{self.n_threads} threads on simulated {self.machine}",
            f"ground-truth runtime: {self.true_seconds * 1e3:.3f} ms "
            "(zero-overhead DES trace)",
            "",
            "Thread-state samplers vs ground truth:",
            format_table(
                [
                    {
                        "tool": r.tool,
                        "period": f"{r.period:g}s",
                        "run err (ms)": f"{r.run_abs_error * 1e3:.3f}",
                        "run err (%)": f"{r.run_rel_error * 100:.1f}",
                        "wait err (ms)": f"{r.wait_abs_error * 1e3:.3f}",
                        "true spread (ms)": f"{r.true_spread * 1e3:.3f}",
                        "shown spread (ms)": (
                            f"{r.displayed_spread * 1e3:.3f}"
                        ),
                        "missed changes (%)": (
                            f"{r.missed_changes * 100:.1f}"
                        ),
                    }
                    for r in self.sampler_rows
                ]
            ),
        ]
        if self.observer_rows:
            out += [
                "",
                "Intrusive tools (observer effect on the measured run):",
                format_table(
                    [
                        {
                            "tool": r.tool,
                            "true (ms)": f"{r.true_seconds * 1e3:.3f}",
                            "measured (ms)": (
                                f"{r.measured_seconds * 1e3:.3f}"
                            ),
                            "slowdown": f"{r.slowdown:.2f}x",
                            "detail": r.detail,
                        }
                        for r in self.observer_rows
                    ]
                ),
            ]
        return "\n".join(out)


def sampler_error_rows(
    truth: GroundTruthTimeline,
    threads: Sequence[str],
    periods: Sequence[float] = DEFAULT_PERIODS,
) -> List[SamplerErrorRow]:
    """Replay a ground-truth timeline through each sampling period and
    quantify displayed-vs-true per-state time error."""
    rows = []
    for period in periods:
        sampler = ThreadStateSampler(period)
        sampled = sampler.sample(truth)
        errors = {}
        for state in (ThreadState.RUNNING, ThreadState.WAITING):
            true_t = [truth.time_in_state(t, state) for t in threads]
            disp_t = [
                sampled.displayed_time_in_state(t, state) for t in threads
            ]
            abs_err = [abs(d - t) for d, t in zip(disp_t, true_t)]
            total_true = sum(true_t)
            errors[state] = (
                sum(abs_err) / len(threads) if threads else 0.0,
                sum(abs_err) / total_true if total_true else 0.0,
            )
        vis = sampler.imbalance_visibility(truth, threads)
        rows.append(
            SamplerErrorRow(
                tool=_tool_name(period),
                period=period,
                run_abs_error=errors[ThreadState.RUNNING][0],
                run_rel_error=errors[ThreadState.RUNNING][1],
                wait_abs_error=errors[ThreadState.WAITING][0],
                wait_rel_error=errors[ThreadState.WAITING][1],
                true_spread=vis["true_spread"],
                displayed_spread=vis["displayed_spread"],
                missed_changes=vis["missed_changes"],
            )
        )
    return rows


def compare_tools(
    workload: str = "salt",
    steps: int = 5,
    n_threads: int = 4,
    machine: str = "i7-920",
    seed: int = 0,
    periods: Sequence[float] = DEFAULT_PERIODS,
    include_observer_effects: bool = True,
    trace: Optional[Sequence] = None,
    tools: Optional[Sequence[str]] = None,
    cache=None,
) -> ToolErrorReport:
    """Run one benchmark and quantify every modeled tool's error.

    The ground-truth run executes untraced-by-tools on a fresh machine;
    its scheduler trace feeds the samplers.  When
    ``include_observer_effects`` is set, the same captured physics trace
    is re-simulated under JaMON monitors and VisualVM per-method
    instrumentation (fresh machines, same seed) and the runtime
    inflation is reported.  Pass a pre-captured ``trace`` to skip the
    serial physics run, or a :class:`~repro.runcache.RunCache` to pull
    it through the content-addressed store.

    ``tools`` restricts the report to a subset of tool names (sampler
    names derive from ``periods``: ``visualvm-1s``, ``vtune-5ms``, ...,
    plus :data:`OBSERVER_TOOLS`); unknown names raise ``ValueError``,
    and intrusive tools left out of the subset are never re-run.
    """
    if workload not in BUILDERS:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {sorted(BUILDERS)}"
        )
    sampler_names = [_tool_name(p) for p in periods]
    if tools is not None:
        available = sorted(set(sampler_names) | set(OBSERVER_TOOLS))
        unknown = sorted(set(tools) - set(available))
        if unknown:
            raise ValueError(
                f"unknown tool(s) {', '.join(unknown)}; "
                f"choose from {', '.join(available)}"
            )
        wanted = set(tools)
        periods = [
            p for p, name in zip(periods, sampler_names)
            if name in wanted
        ]
    else:
        wanted = set(sampler_names) | set(OBSERVER_TOOLS)
    spec = MACHINES[machine]
    if trace is None:
        from repro.runcache import cached_capture

        trace = cached_capture(cache, workload, steps)
    n_atoms = trace_atoms(trace)

    def run(instrumentation_factory=None):
        m = SimMachine(spec, seed=seed)
        instr = (
            instrumentation_factory(m)
            if instrumentation_factory is not None
            else None
        )
        res = SimulatedParallelRun(
            trace, n_atoms, m, n_threads,
            instrumentation=instr, name="wl",
        ).run()
        return m, instr, res

    base_machine, _, base_res = run()
    truth = GroundTruthTimeline(base_machine.scheduler.trace.events)
    workers = [f"wl-pool-worker-{i}" for i in range(n_threads)]
    report = ToolErrorReport(
        workload=workload,
        steps=len(trace),
        n_threads=n_threads,
        machine=spec.name,
        true_seconds=base_res.sim_seconds,
        sampler_rows=sampler_error_rows(truth, workers, periods),
    )
    if include_observer_effects and "jamon-monitors" in wanted:
        _, jamon, jamon_res = run(lambda m: JaMonInstrumentation(m))
        report.observer_rows.append(
            ObserverEffectRow(
                tool="jamon-monitors",
                true_seconds=base_res.sim_seconds,
                measured_seconds=jamon_res.sim_seconds,
                slowdown=jamon_res.sim_seconds / base_res.sim_seconds,
                detail=(
                    f"monitor lock contention "
                    f"{jamon.contention_ratio * 100:.0f}%"
                ),
            )
        )
    if include_observer_effects and "visualvm-instr" in wanted:
        _, vvm, vvm_res = run(
            lambda m: VisualVmCpuInstrumentation(m, agent_duration=1.0)
        )
        report.observer_rows.append(
            ObserverEffectRow(
                tool="visualvm-instr",
                true_seconds=base_res.sim_seconds,
                measured_seconds=vvm_res.sim_seconds,
                slowdown=vvm_res.sim_seconds / base_res.sim_seconds,
                detail=f"{vvm.inflation:g}x per-method inflation + agent",
            )
        )
    return report
