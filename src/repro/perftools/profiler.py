"""Sampling-profiler bias — the Mytkowicz et al. phenomenon (§VI-B).

"Mytkowicz et al. analyzed the accuracy of Java code profilers and
found that the different tools are inconsistent in identifying hot
methods or sections of code.  This is due to sampling the call stack
primarily at yield points in the code and a lack of random sampling."

Two profilers over the same ground-truth execution record:

* :class:`RandomSamplingProfiler` — samples uniformly in time; its hot
  list converges on the true time distribution;
* :class:`YieldPointProfiler` — can only observe a thread at its yield
  points (burst boundaries), so each *execution* of a method counts
  once regardless of its duration — long-running methods are
  under-reported exactly as the cited study found.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.machine.machine import SimMachine


def _execution_intervals(
    machine: SimMachine,
) -> List[Tuple[float, float, str]]:
    """(start, end, label) execution intervals from the scheduler trace."""
    open_runs: Dict[str, Tuple[float, str]] = {}
    intervals: List[Tuple[float, float, str]] = []
    for time, thread, _pu, what in machine.scheduler.trace.events:
        if what.startswith("run"):
            open_runs[thread] = (time, what.partition(":")[2])
        elif what in ("done", "preempt") and thread in open_runs:
            start, label = open_runs.pop(thread)
            if time > start:
                intervals.append((start, time, label))
    return intervals


def true_hot_methods(machine: SimMachine) -> Dict[str, float]:
    """Ground truth: total executed seconds per method label."""
    totals: Dict[str, float] = {}
    for start, end, label in _execution_intervals(machine):
        key = label or "(unlabeled)"
        totals[key] = totals.get(key, 0.0) + (end - start)
    return totals


class RandomSamplingProfiler:
    """Unbiased profiler: samples uniformly random instants."""

    def __init__(self, n_samples: int = 4000, seed: int = 0):
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1: {n_samples}")
        self.n_samples = n_samples
        self.rng = np.random.default_rng(seed)

    def profile(self, machine: SimMachine) -> Dict[str, float]:
        """Sampled hot-method fractions (sum to 1 over hits)."""
        intervals = _execution_intervals(machine)
        if not intervals:
            return {}
        starts = np.array([s for s, _, _ in intervals])
        ends = np.array([e for _, e, _ in intervals])
        labels = [l or "(unlabeled)" for _, _, l in intervals]
        times = self.rng.uniform(0.0, ends.max(), self.n_samples)
        counts: Dict[str, int] = {}
        order = np.argsort(starts)
        sorted_starts = starts[order]
        for t in times:
            k = np.searchsorted(sorted_starts, t, side="right") - 1
            if k < 0:
                continue
            idx = order[k]
            if starts[idx] <= t < ends[idx]:
                lab = labels[idx]
                counts[lab] = counts.get(lab, 0) + 1
        total = sum(counts.values())
        return (
            {k: v / total for k, v in counts.items()} if total else {}
        )


class YieldPointProfiler:
    """Yield-point-biased profiler (how JVMTI-era samplers worked).

    The profiler requests a sample at random instants, but the thread
    only *delivers* the sample when it reaches its next yield point —
    the end of the current burst.  Every delivery therefore attributes
    one hit to whichever method was running, making hit counts
    proportional to how often a method executes, not how long.
    """

    def __init__(self, n_samples: int = 4000, seed: int = 0):
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1: {n_samples}")
        self.n_samples = n_samples
        self.rng = np.random.default_rng(seed)

    def profile(self, machine: SimMachine) -> Dict[str, float]:
        """Sampled hot-method fractions under yield-point bias."""
        intervals = _execution_intervals(machine)
        if not intervals:
            return {}
        # a sample requested during interval k is delivered at its end,
        # attributing a hit to that interval's method — but a sample
        # requested while *no* burst runs is delivered at the start of
        # the next one.  Either way hits ~ executions, not durations.
        labels = [l or "(unlabeled)" for _, _, l in intervals]
        picks = self.rng.integers(0, len(intervals), self.n_samples)
        counts: Dict[str, int] = {}
        for k in picks:
            lab = labels[int(k)]
            counts[lab] = counts.get(lab, 0) + 1
        total = sum(counts.values())
        return {k: v / total for k, v in counts.items()}


def profiler_disagreement(
    a: Dict[str, float], b: Dict[str, float]
) -> float:
    """Total variation distance between two hot-method distributions."""
    # sorted, so the float sum does not follow the string hash seed
    keys = sorted(set(a) | set(b))
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)
