"""Experiment table3 — TABLE III: Differences in runtime with the same
number of cores but different topologies.

Al-1000 on the simulated 4 x Xeon X7560 (32 cores, 64 PUs) under the
paper's seven configurations (:func:`repro.targets.table3_specs`, the
grid ``repro table3`` sweeps too), swept through the run cache.  As in
§V-B, every configuration uses one single-thread pool per worker
(task→thread binding); pinned rows add ``sched_setaffinity``-style
masks, "OS scheduled" rows leave placement free.  Background system
load (the ``"table3"`` scenario of :mod:`repro.machine.background`)
runs on a few PUs plus unpinned service tasks.

The findings scored are :data:`repro.targets.TABLE3_RELATIONS`.  One is
a known deviation (DESIGN §5c): the paper's 8-thread OS-scheduled row
is its *slowest* 8-thread configuration; our scheduler model avoids
contention too well for that inversion to emerge, so the row is
reported, not asserted.
"""

from _util import TRACE_STEPS, write_report

from repro.analysis import table3
from repro.runcache import sweep_seconds
from repro.targets import TABLE3_PAPER, TABLE3_RELATIONS, table3_specs


def sweep(cache):
    specs = table3_specs(TRACE_STEPS)
    return dict(zip(specs, sweep_seconds(list(specs.values()), cache)))


def test_table3_pinning(benchmark, run_cache, out_dir):
    results = benchmark.pedantic(
        sweep, args=(run_cache,), rounds=1, iterations=1
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
