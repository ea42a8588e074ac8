"""Critical-path extraction over the span graph.

The replay's execution is a series-parallel DAG: a serial master
segment (display refresh, dispatch), then a phase's tasks in parallel,
then the latch joins them into the next serial segment, and so on.  The
*critical path* is the longest dependency chain through that graph —
the fastest the run could possibly finish on this machine with
unbounded cores — so ``T₁ / T_cp`` is a hard upper bound on speedup,
and each phase's share of the path says where adding threads stops
helping (Brent's bound / the span term of work-span analysis).

:func:`critical_path` extracts the chain from one
:class:`~repro.obs.attribution.RunObservation`'s phase windows and
serial spine in one forward fold, because the graph's shape is fixed:
``serial/0``, window 0's tasks, ``serial/1``, window 1's tasks, …
Each serial node's weight sums only the spine intervals that overlap
its gap (the spine is merged and sorted, so a bisection on interval
ends finds them), and each node's distance is settled as the fold
reaches it.  The fold is exact, not an approximation: it makes the
same float operations, in the same order, as a Kahn-order longest-path
pass over the same graph —

* a gap's weight adds the same nonzero overlaps in spine order (the
  intervals it skips would add ``0.0``, which changes no float sum);
* ``dist(serial/k+1)`` is the *first strict maximum*, in the order
  Kahn's queue releases the tasks (a task listed twice is released at
  its last listing, with its last exec time), of
  ``(dist(serial/k) + exec) + w(serial/k+1)``;
* the end node is the maximum of ``(dist, name)`` over every node.

So ``seconds``, ``chain``, ``nodes`` and ``total_work_seconds`` equal
the generic pass's bit for bit; ``tests/obs/test_critical_path_oracle.py``
keeps that pass as the oracle.  Task node ids must be unique across
windows (they carry the window's phase and step).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


@dataclass
class CriticalPath:
    """The longest dependent chain of one run."""

    #: length of the chain in simulated seconds (T_inf)
    seconds: float
    #: node ids along the chain, in dependency order
    chain: List[str]
    #: node id → (phase, duration) for every node in the graph
    nodes: Dict[str, Tuple[str, float]]
    #: Σ of all node durations — the run's total work, serial + tasks
    total_work_seconds: float

    @property
    def parallelism(self) -> float:
        """Average parallelism (work / span): max useful thread count."""
        return (
            self.total_work_seconds / self.seconds if self.seconds else 0.0
        )

    def phase_share(self) -> Dict[str, float]:
        """Fraction of the critical path spent in each phase."""
        if self.seconds <= 0:
            return {}
        per_phase: Dict[str, float] = defaultdict(float)
        for node in self.chain:
            phase, dur = self.nodes[node]
            per_phase[phase] += dur
        return {p: v / self.seconds for p, v in sorted(per_phase.items())}


def critical_path(
    window_exec: Sequence[Tuple[object, Sequence[Tuple[str, float]]]],
    serial_intervals: Sequence[Interval],
    sim_seconds: float,
) -> CriticalPath:
    """Build the span graph from phase windows and extract the path.

    ``window_exec`` is the per-window task list of a
    :class:`~repro.obs.attribution.RunObservation` (each window carries
    its tasks' on-core exec seconds, windows in time order);
    ``serial_intervals`` is the merged, sorted master-on-core ∪ GC
    spine.  Serial work between consecutive windows becomes one node;
    each window's tasks fan out between the surrounding serial nodes.
    """
    ends = [e for _s, e in serial_intervals]
    # what ``sum`` over the whole spine starts from: the int 0 when
    # there is no spine, else 0.0 (skipped intervals would add 0.0)
    zero = 0.0 if serial_intervals else 0

    def serial_weight(lo: float, hi: float) -> float:
        i = j = bisect_right(ends, lo)  # the first interval ending past lo
        while j < len(ends) and serial_intervals[j][0] < hi:
            j += 1
        if j - i == 1:  # the usual gap; ``sum`` of one term is the term
            s, e = serial_intervals[i]
            return max(0.0, min(e, hi) - max(s, lo))
        return sum(
            [
                max(0.0, min(e, hi) - max(s, lo))
                for s, e in serial_intervals[i:j]
            ],
            zero,
        )

    nodes: Dict[str, Tuple[str, float]] = {}
    pred: Dict[str, str] = {}
    serial = "serial/0"
    first_begin = window_exec[0][0].begin if window_exec else sim_seconds
    dist = serial_weight(0.0, first_begin)
    nodes[serial] = ("serial", dist)
    end_dist, end = dist, serial  # the running max of (dist, node id)
    for k, (window, tasks) in enumerate(window_exec):
        nxt_begin = (
            window_exec[k + 1][0].begin
            if k + 1 < len(window_exec)
            else sim_seconds
        )
        nxt = f"serial/{k + 1}"
        weight = serial_weight(window.end, nxt_begin)
        nodes[nxt] = ("serial", weight)
        if tasks:
            prefix = f"{window.name}/{window.step}/"
            # a task listed twice keeps its first place and last time
            execs = {f"{prefix}{uid}": exec_s for uid, exec_s in tasks}
            for node, exec_s in execs.items():
                nodes[node] = (window.name, exec_s)
            order = execs
            if len(execs) < len(tasks):
                # Kahn's queue releases a task at its last listing
                ids = [f"{prefix}{uid}" for uid, _exec in reversed(tasks)]
                order = list(dict.fromkeys(ids))[::-1]
            best: Optional[float] = None
            for node in order:
                d = dist + execs[node]
                if d > end_dist or (d == end_dist and node > end):
                    end_dist, end = d, node
                    pred[node] = serial
                cand = d + weight
                if best is None or cand > best:
                    best, via = cand, node
            pred[via] = serial
            pred[nxt] = via
            dist = best
        else:
            pred[nxt] = serial
            dist = dist + weight
        if dist > end_dist or (dist == end_dist and nxt > end):
            end_dist, end = dist, nxt
        serial = nxt
    chain = [end]
    while chain[-1] in pred:
        chain.append(pred[chain[-1]])
    chain.reverse()
    return CriticalPath(
        seconds=end_dist,
        chain=chain,
        nodes=nodes,
        total_work_seconds=sum([dur for _phase, dur in nodes.values()]),
    )
