"""Experiment fig1 — Fig. 1: Observed Speedup on an Intel Core i7 System.

Replays each benchmark's work trace at 1-4 threads on the simulated
i7 920 and scores the curves against :mod:`repro.targets`: each
4-thread speedup inside its band around the paper's value, salt >
nanocar > Al-1000, no large regression as cores are added, and the
LJ-dominated Al-1000 saturating early.
"""

from _util import write_report

from repro.analysis import ascii_bar_chart
from repro.analysis.speedup import replay
from repro.machine import MACHINES
from repro.targets import (
    FIG1_MACHINE,
    FIG1_ORDER,
    FIG1_PAPER,
    FIG1_THREADS,
    fig1_band_checks,
    fig1_shape_checks,
)


def sweep(traces):
    spec = MACHINES[FIG1_MACHINE]
    curves = {}
    for name, (wl, trace) in traces.items():
        seconds = [
            replay(trace, wl.system.n_atoms, spec, n, name=name).sim_seconds
            for n in FIG1_THREADS
        ]
        curves[name] = [seconds[0] / s for s in seconds]
    return curves


def test_fig1_speedup(benchmark, traces, out_dir):
    curves = benchmark.pedantic(sweep, args=(traces,), rounds=1, iterations=1)

    checks = fig1_band_checks({n: s[-1] for n, s in curves.items()})
    checks += fig1_shape_checks(curves)
    for check in checks:
        assert check.ok, f"{check.label}: {check.measured} vs {check.target}"

    rows = []
    for name in FIG1_ORDER:
        rows.append(
            f"{name:<10} "
            + "  ".join(f"{s:4.2f}x" for s in curves[name])
            + f"   (paper @4: {FIG1_PAPER[name]:.2f}x)"
        )
    body = "Speedup at 1/2/3/4 simulated cores (Intel Core i7 920):\n"
    body += "\n".join(rows) + "\n\n"
    body += ascii_bar_chart(
        {k: v for k, v in curves.items()},
        FIG1_THREADS,
        title="Fig. 1 (reproduced): speedup vs cores",
    )
    write_report(out_dir / "fig1.txt", "Fig. 1: Observed Speedup", body)
