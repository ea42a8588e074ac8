"""Experiment table3 — TABLE III: Differences in runtime with the same
number of cores but different topologies.

Al-1000 on the simulated 4 x Xeon X7560 (32 cores, 64 PUs) under the
paper's seven configurations (:func:`repro.analysis.speedup.table3_sweep`,
the same driver as ``repro table3``).  As in §V-B, every configuration
uses one single-thread pool per worker (task→thread binding); pinned
rows add ``sched_setaffinity``-style masks, "OS scheduled" rows leave
placement free.  Background system load runs on a few PUs plus unpinned
service tasks.

The findings scored are :data:`repro.targets.TABLE3_RELATIONS`.  One is
a known deviation (DESIGN §5c): the paper's 8-thread OS-scheduled row
is its *slowest* 8-thread configuration; our scheduler model avoids
contention too well for that inversion to emerge, so the row is
reported, not asserted.
"""

from _util import write_report

from repro.analysis import table3
from repro.analysis.speedup import table3_sweep
from repro.targets import TABLE3_PAPER, TABLE3_RELATIONS, TABLE3_WORKLOAD


def test_table3_pinning(benchmark, traces, out_dir):
    _wl, trace = traces[TABLE3_WORKLOAD]
    results = benchmark.pedantic(
        table3_sweep, args=(trace,), rounds=1, iterations=1
    )
    verdicts = []
    for rel in TABLE3_RELATIONS:
        holds = rel.holds(results)
        if rel.known_deviation:
            state = "holds" if holds else "not reproduced"
            verdicts.append(f"known deviation ({state}): {rel.label}")
        else:
            assert holds, rel.label
            verdicts.append(f"holds: {rel.label}")

    rows = []
    best = min(results.values())
    pbest = min(TABLE3_PAPER.values())
    for label, paper in TABLE3_PAPER.items():
        rows.append(
            {
                "Number of Cores Used / Topology": label,
                "Runtime (ms sim)": f"{results[label] * 1e3:.2f}",
                "Relative": f"{results[label] / best:.2f}",
                "Paper (s)": paper,
                "Paper relative": f"{paper / pbest:.2f}",
            }
        )
    write_report(
        out_dir / "table3.txt",
        "TABLE III: Runtime vs pinning topology (Al-1000, 4x Xeon X7560)",
        table3(rows) + "\n\n" + "\n".join(verdicts),
    )
