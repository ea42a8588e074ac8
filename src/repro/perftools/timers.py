"""Timer-placement ablation: how phase timing itself distorts results.

"A Note on Time Measurements in LAMMPS" (PAPERS.md) showed that the
per-phase times an MD code reports depend heavily on *where* the timer
reads sit relative to the synchronization points: an un-synchronized
timer lets one phase's load-imbalance wait leak into whichever section
happens to read the clock next, so the profile blames the wrong phase.
The paper under reproduction timed MW's phases the simple way (wall
clock around the master's dispatch loop), which is exactly the
configuration this harness scores.

Three timer placements are re-timed against the ground-truth trace
(per-task worker execution intervals — the zero-overhead record no
real harness has):

* ``timer-outside`` — one wall-clock read outside the phase barrier,
  multiplied by the thread count (what MW's master-side timing did):
  dispatch overhead, queue wait, and latch skew all bill to the phase.
* ``timer-free`` — free-running per-worker timers read at task
  boundaries with **no** barrier: each task is billed until the
  worker's *next* task starts, so imbalance wait leaks into the
  finished phase (the LAMMPS note's central artifact).
* ``timer-sync`` — an ``MPI_Barrier``-style synchronization before
  every timer read: waits are separated from work, leaving only the
  per-read timer cost (small, but real — synchronizing is itself a
  perturbation).

Per variant, distortion is the summed per-phase absolute error
relative to total true busy time — directly comparable with the other
tools' leaderboard error metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import format_table

#: timer-read placements the harness can score
VARIANTS = ("timer-outside", "timer-free", "timer-sync")

#: one clock read, simulated seconds (a gettimeofday-class call);
#: timer-sync pays it twice per task (before/after), the free-running
#: variant's reads are already inside the billed window
DEFAULT_TIMER_COST = 2e-7


@dataclass
class TimerVariantRow:
    """Per-phase displayed seconds of one timer placement."""

    variant: str
    displayed: Dict[str, float]
    #: summed |displayed - true| across phases / total true seconds
    distortion: float
    #: the phase whose share this placement misstates the most
    worst_phase: str = ""
    worst_error: float = 0.0


@dataclass
class TimerAblationReport:
    """Ground truth + every re-timed variant for one traced run."""

    true_seconds: Dict[str, float]
    rows: List[TimerVariantRow] = field(default_factory=list)

    def row(self, variant: str) -> TimerVariantRow:
        """The scored row of one placement; KeyError if not ablated."""
        for r in self.rows:
            if r.variant == variant:
                return r
        raise KeyError(f"variant not in ablation: {variant!r}")

    def distortions(self) -> Dict[str, float]:
        """Variant -> distortion, the leaderboard's error metric."""
        return {r.variant: r.distortion for r in self.rows}

    def render(self) -> str:
        """ASCII table: ground truth plus every re-timed variant."""
        phases = sorted(self.true_seconds)
        table = []
        for r in self.rows:
            row = {"timer": r.variant}
            for p in phases:
                row[f"{p} (ms)"] = f"{r.displayed.get(p, 0.0) * 1e3:.3f}"
            row["distortion (%)"] = f"{r.distortion * 100:.1f}"
            row["worst phase"] = r.worst_phase
            table.append(row)
        truth = {"timer": "ground truth"}
        for p in phases:
            truth[f"{p} (ms)"] = f"{self.true_seconds[p] * 1e3:.3f}"
        truth["distortion (%)"] = "0.0"
        truth["worst phase"] = "-"
        return format_table([truth] + table)


def _true_phase_seconds(spans: Sequence) -> Dict[str, float]:
    """Ground truth: per-phase summed worker execution seconds."""
    truth: Dict[str, float] = {}
    for span in spans:
        if not span.complete:
            continue
        label = span.label or "task"
        truth[label] = truth.get(label, 0.0) + span.exec_time
    return truth


def _distortion(
    displayed: Dict[str, float], truth: Dict[str, float]
) -> tuple:
    total_true = sum(truth.values())
    if total_true <= 0:
        return 0.0, "", 0.0
    worst_phase, worst = "", -1.0
    err = 0.0
    # sorted, so neither the float sum nor the tie-break on the worst
    # phase follows the string hash seed
    for phase in sorted(set(displayed) | set(truth)):
        e = abs(displayed.get(phase, 0.0) - truth.get(phase, 0.0))
        err += e
        if e > worst:
            worst_phase, worst = phase, e
    return err / total_true, worst_phase, worst / total_true


def ablate_timers(
    spans: Sequence,
    phase_windows: Sequence,
    n_threads: int,
    *,
    timer_cost: float = DEFAULT_TIMER_COST,
    variants: Sequence[str] = VARIANTS,
) -> TimerAblationReport:
    """Score each timer placement against the ground-truth trace.

    ``spans`` are the tracer's :class:`~repro.obs.tracer.TaskSpan`
    records; ``phase_windows`` its master-side
    :class:`~repro.obs.tracer.PhaseWindow` list.
    """
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1: {n_threads}")
    unknown = sorted(set(variants) - set(VARIANTS))
    if unknown:
        raise ValueError(
            f"unknown timer variant(s) {unknown}; choose from {VARIANTS}"
        )
    truth = _true_phase_seconds(spans)
    report = TimerAblationReport(true_seconds=truth)
    complete = [s for s in spans if s.complete]

    for variant in variants:
        displayed: Dict[str, float] = {}
        if variant == "timer-outside":
            # master wall window x thread count: everything between the
            # submit and the latch trip bills to the phase, idle included
            for win in phase_windows:
                if win.end is None:
                    continue
                displayed[win.name] = (
                    displayed.get(win.name, 0.0)
                    + (win.end - win.begin) * n_threads
                )
        elif variant == "timer-free":
            # free-running per-worker clocks read at task starts: a task
            # is billed until the same worker starts its next task, so
            # post-task latch wait leaks into the finished phase
            by_worker: Dict[Optional[int], List] = {}
            for span in complete:
                by_worker.setdefault(span.worker, []).append(span)
            for tasks in by_worker.values():
                tasks.sort(key=lambda s: s.started)
                for span, nxt in zip(tasks, tasks[1:]):
                    label = span.label or "task"
                    displayed[label] = (
                        displayed.get(label, 0.0)
                        + (nxt.started - span.started)
                    )
                last = tasks[-1]
                label = last.label or "task"
                displayed[label] = (
                    displayed.get(label, 0.0) + last.exec_time
                )
        elif variant == "timer-sync":
            # barrier before each read: waits separated from work; the
            # residual error is the two timer reads around every task
            for span in complete:
                label = span.label or "task"
                displayed[label] = (
                    displayed.get(label, 0.0)
                    + span.exec_time
                    + 2 * timer_cost
                )
        distortion, worst_phase, worst = _distortion(displayed, truth)
        report.rows.append(
            TimerVariantRow(
                variant=variant,
                displayed=displayed,
                distortion=distortion,
                worst_phase=worst_phase,
                worst_error=worst,
            )
        )
    return report
