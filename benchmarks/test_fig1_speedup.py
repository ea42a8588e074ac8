"""Experiment fig1 — Fig. 1: Observed Speedup on an Intel Core i7 System.

Sweeps the Fig. 1 grid (:func:`repro.targets.fig1_specs`: each
benchmark at 1-4 threads on the simulated i7 920) through the run cache
and scores the curves against :mod:`repro.targets`: each 4-thread
speedup inside its band around the paper's value, salt > nanocar >
Al-1000, no large regression as cores are added, and the LJ-dominated
Al-1000 saturating early.
"""

from _util import write_report

from repro.analysis import ascii_bar_chart
from repro.runcache import sweep_seconds
from repro.targets import (
    FIG1_ORDER,
    FIG1_PAPER,
    FIG1_THREADS,
    fig1_band_checks,
    fig1_shape_checks,
    fig1_specs,
    fig1_speedups,
)


def sweep(cache):
    specs = fig1_specs()
    return fig1_speedups(specs, sweep_seconds(specs, cache))


def test_fig1_speedup(benchmark, run_cache, out_dir):
    curves = benchmark.pedantic(
        sweep, args=(run_cache,), rounds=1, iterations=1
    )

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
