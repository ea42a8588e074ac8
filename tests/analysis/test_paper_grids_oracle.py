"""Fig. 1 and Table III as spec grids, held to the drivers they replaced.

``replay``, ``fig1_sweep`` and ``table3_sweep`` below are the old
``repro.analysis.speedup`` drivers, kept as bit-exact oracles (only
``SpeedupCurve`` is gone: ``fig1_sweep`` returns plain seconds).  They
replayed captures on fresh machines with no spec, no cache and no
journal.  The paper's numbers now come from the observe-spec grids in
:mod:`repro.targets`, swept through the run cache; every cell's seconds
must stay ``repr``-equal to the oracle's.
"""

import dataclasses

import pytest

from repro.concurrent import QueueMode
from repro.core.simulate import (
    RunResult,
    SimulatedParallelRun,
    capture_trace,
    trace_atoms,
)
from repro.machine.background import inject_background_load, inject_mobile_load
from repro.machine.machine import SimMachine
from repro.machine.topology import CORE_I7_920, MACHINES, MachineSpec, Topology
from repro.runcache import (
    RunCache,
    dumps_artifact,
    execute_spec,
    sweep_seconds,
)
from repro.targets import (
    FIG1_MACHINE,
    FIG1_ORDER,
    FIG1_SEED,
    FIG1_STEPS,
    FIG1_THREADS,
    TABLE3_MACHINE,
    TABLE3_PAPER,
    TABLE3_SEED,
    TABLE3_WORKLOAD,
    fig1_specs,
    fig1_speedups,
    table3_configs,
    table3_specs,
)
from repro.workloads import BUILDERS

#: one step shows every row's configuration and background load
TABLE3_STEPS = 1

# -- the old drivers ----------------------------------------------------------


def replay(
    trace,
    n_atoms: int,
    spec: MachineSpec,
    n_threads: int,
    *,
    seed: int = 2,
    name: str = "wl",
    **kwargs,
) -> RunResult:
    """One simulated run on a fresh machine."""
    machine = SimMachine(spec, seed=seed)
    run = SimulatedParallelRun(
        trace, n_atoms, machine, n_threads, name=name, **kwargs
    )
    return run.run()


def fig1_sweep(
    workloads,
    spec: MachineSpec = CORE_I7_920,
    threads=(1, 2, 3, 4),
    steps: int = 25,
    *,
    seed: int = 2,
    queue_mode: QueueMode = QueueMode.SINGLE,
):
    """``{workload: seconds per thread count}``: physics runs once per
    workload, each thread count replays on a fresh machine."""
    curves = {}
    for wl in workloads:
        trace = capture_trace(wl, steps)
        curves[wl.name] = [
            replay(
                trace, wl.system.n_atoms, spec, n,
                seed=seed, name=wl.name, queue_mode=queue_mode,
            ).sim_seconds
            for n in threads
        ]
    return curves


def table3_sweep(trace, *, seed: int = TABLE3_SEED):
    """``{row label: simulated seconds}`` on a fresh 4 x Xeon X7560
    per row, under the same hand-injected background load."""
    spec = MACHINES[TABLE3_MACHINE]
    n_atoms = trace_atoms(trace)
    seconds = {}
    for label, n_threads, mask in table3_configs(Topology(spec)):
        machine = SimMachine(spec, seed=seed)
        inject_background_load(
            machine, [0, 2, 4, 16], utilization=0.45, duration=10.0
        )
        inject_mobile_load(machine, 8, utilization=0.3, duration=10.0)
        affinities = None
        if mask is not None:
            pus = sorted(mask)
            affinities = [[pus[i % len(pus)]] for i in range(n_threads)]
        seconds[label] = SimulatedParallelRun(
            trace, n_atoms, machine, n_threads,
            affinities=affinities, queue_mode=QueueMode.PER_THREAD,
            name="al", repeat=2,
        ).run().sim_seconds
    return seconds


# -- the grids ----------------------------------------------------------------


@pytest.fixture(scope="module")
def fig1():
    specs = fig1_specs()
    return specs, sweep_seconds(specs, RunCache())


@pytest.fixture(scope="module")
def table3():
    specs = table3_specs(TABLE3_STEPS)
    return specs, sweep_seconds(list(specs.values()), RunCache())


def test_fig1_cells_equal_the_oracle(fig1):
    specs, seconds = fig1
    oracle = fig1_sweep(
        [BUILDERS[n]() for n in FIG1_ORDER], MACHINES[FIG1_MACHINE],
        FIG1_THREADS, FIG1_STEPS, seed=FIG1_SEED,
    )
    got = {(s.workload, s.threads): repr(x) for s, x in zip(specs, seconds)}
    want = {
        (w, n): repr(x)
        for w, row in oracle.items()
        for n, x in zip(FIG1_THREADS, row)
    }
    assert len(got) == len(FIG1_ORDER) * len(FIG1_THREADS)
    assert got == want


def test_fig1_four_thread_speedups_hold(fig1):
    curves = fig1_speedups(*fig1)
    assert {w: round(s[-1], 4) for w, s in curves.items()} == {
        "salt": 3.6341, "nanocar": 2.8474, "Al-1000": 1.4120,
    }


def test_fig1_grid_structure():
    specs = fig1_specs(["salt"], "i7-920", (1, 2), 5)
    assert [(s.kind, s.workload, s.threads, s.seed) for s in specs] == [
        ("observe", "salt", 1, FIG1_SEED), ("observe", "salt", 2, FIG1_SEED),
    ]
    seconds = sweep_seconds(specs, RunCache())
    (curve,) = fig1_speedups(specs, seconds).values()
    assert curve[0] == 1.0
    assert curve[1] > 1.4


def test_table3_rows_equal_the_oracle(table3):
    specs, seconds = table3
    assert list(specs) == list(TABLE3_PAPER)
    trace = capture_trace(BUILDERS[TABLE3_WORKLOAD](), TABLE3_STEPS)
    oracle = table3_sweep(trace)
    assert [repr(x) for x in seconds] == [repr(oracle[k]) for k in specs]


def test_table3_load_is_an_observable_field(table3):
    specs, _ = table3
    loaded = specs["4, OS scheduled"]
    bare = dataclasses.replace(
        loaded, options={**loaded.options, "load": None}
    )
    cache = RunCache()
    assert cache.digest(bare) != cache.digest(loaded)
    # the loaded row's artifact is the one the grid's sweep stored
    assert dumps_artifact(execute_spec(bare, cache)) != dumps_artifact(
        cache.get(loaded)
    )
