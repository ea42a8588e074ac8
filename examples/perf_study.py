#!/usr/bin/env python
"""The paper's performance investigation, end to end.

Replays the whole §III-§V workflow on the simulated machines:

1. Fig. 1   — speedup sweep of the three benchmarks on the i7 920,
2. §IV      — load-balance analysis of the poorly scaling Al-1000:
              aggregate balance vs per-iteration skew, and what the
              1 s / 5 ms samplers would have shown,
3. Fig. 2   — thread-to-core residency without pinning,
4. Table III — the pinning topologies on the 4 x Xeon X7560,
5. §V-C     — the topology report the authors wished for.

Run:  python examples/perf_study.py        (~1 minute)
"""

from repro.analysis import analyze_run, ascii_bar_chart, table3
from repro.core import SimulatedParallelRun, capture_trace
from repro.machine import CORE_I7_920, SimMachine
from repro.perftools import (
    GroundTruthTimeline,
    ThreadStateSampler,
    VTune,
    topology_report,
)
from repro.runcache import sweep_seconds
from repro.targets import (
    FIG1_THREADS,
    fig1_specs,
    fig1_speedups,
    table3_specs,
)
from repro.workloads import BUILDERS


def section(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def main() -> None:
    section("1. Fig. 1 — speedup on the simulated Intel Core i7 920")
    specs = fig1_specs()
    print(
        ascii_bar_chart(
            fig1_speedups(specs, sweep_seconds(specs)),
            FIG1_THREADS,
            title="speedup vs simulated cores (paper: 3.63 / 3.03 / 1.42)",
        )
    )

    section("2. §IV — why does Al-1000 scale so poorly?")
    wl = BUILDERS["Al-1000"]()
    trace = capture_trace(wl, 20)
    machine = SimMachine(CORE_I7_920, seed=4)
    result = SimulatedParallelRun(
        trace, wl.system.n_atoms, machine, 4, name="al", repeat=2
    ).run()
    report = analyze_run(result)
    print(report.render())
    truth = GroundTruthTimeline(machine.scheduler.trace.events)
    workers = [f"al-pool-worker-{i}" for i in range(4)]
    for label, period in (("VisualVM 1 s", 1.0), ("VTune 5 ms", 0.005)):
        vis = ThreadStateSampler(period).imbalance_visibility(truth, workers)
        print(
            f"{label:>12} sampler: misses "
            f"{vis['missed_changes'] * 100:.1f}% of state transitions"
        )
    vtune = VTune(machine)
    print("LLC miss fraction:", {
        k: f"{v * 100:.0f}%" for k, v in vtune.llc_miss_rates().items()
    })
    print("=> load balance is not the story; the memory subsystem is.")

    section("3. Fig. 2 — thread-to-core residency without pinning")
    print(vtune.thread_to_core_plot(workers))
    print("migrations:", {w[-8:]: vtune.migrations(w) for w in workers})

    section("4. Table III — pinning topologies on the 4 x Xeon X7560")
    specs = table3_specs(20)
    rows = [
        {"Topology": label, "Runtime (ms sim)": f"{t * 1e3:.2f}"}
        for label, t in zip(specs, sweep_seconds(list(specs.values())))
    ]
    print(table3(rows))

    section("5. §V-C — the topology report the authors asked for")
    pinned = {f"worker-{i}": pu for i, pu in enumerate([0, 1, 4, 6])}
    print(topology_report(CORE_I7_920, pinned=pinned))


if __name__ == "__main__":
    main()
