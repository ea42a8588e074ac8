"""The reproduction's targets: every science number, with its tolerance.

Each figure the paper reports, or that calibration fixed (DESIGN §5b),
lives here once.  ``repro scorecard``, the experiment benchmarks
(``benchmarks/test_fig1_speedup.py``, ``test_table1_characteristics.py``,
``test_table3_pinning.py``) and the gates under ``tests/gates/`` read
their rows from this module, so a target can only move in one place.

Rows are data plus small pure predicates over measured values; Fig. 1
and Table III are also run-spec grids (:func:`fig1_specs`,
:func:`table3_specs`) that every driver sweeps through the run cache.
Nothing here runs a simulation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, NamedTuple, Sequence, Tuple

# -- TABLE I: representative benchmark characteristics -----------------------

#: workload -> (atoms, charged atoms, bonds, dominant computation type)
TABLE1: Dict[str, Tuple[int, int, int, str]] = {
    "nanocar": (989, 0, 2277, "Bonds"),
    "salt": (800, 800, 0, "Ionic"),
    "Al-1000": (1000, 0, 0, "Lennard-Jones"),
}
TABLE1_COLUMNS = (
    "# of Atoms",
    "# of Charged Atoms",
    "# of Bonds",
    "Dominant Computation Type",
)


def table1_cells(row: Mapping) -> Tuple:
    """One ``table1_rows`` / ``characteristics()`` row as a TABLE1 tuple."""
    return tuple(row[c] for c in TABLE1_COLUMNS)


# -- Fig. 1: observed speedup on the Core i7 920 -----------------------------

FIG1_MACHINE = "i7-920"
FIG1_THREADS = (1, 2, 3, 4)
#: the headline shape: salt scales best, nanocar next, Al-1000 last
FIG1_ORDER = ("salt", "nanocar", "Al-1000")
#: the paper's 4-thread speedups
FIG1_PAPER = {"salt": 3.63, "nanocar": 3.03, "Al-1000": 1.42}
#: the band every step count must land the 4-thread speedup in
FIG1_BANDS = {
    "salt": (3.2, 4.0),
    "nanocar": (2.5, 3.3),
    "Al-1000": (1.15, 1.7),
}
#: calibrated 4-thread speedups (DESIGN §5b); they hold to
#: ``FIG1_TOLERANCE`` at ``FIG1_STEPS`` steps for every machine seed
FIG1_CALIBRATED = {"salt": 3.63, "nanocar": 2.85, "Al-1000": 1.41}
FIG1_STEPS = 20
#: machine seed of every Fig. 1 replay
FIG1_SEED = 2
FIG1_TOLERANCE = 0.01
#: adding a core may cost at most 8% of the previous speedup
FIG1_MONOTONE_FLOOR = 0.92
#: Al-1000 saturates early: its 4-over-2-thread gain stays below this
FIG1_AL1000_SATURATION = 1.35


def fig1_specs(
    workloads: Sequence[str] = FIG1_ORDER,
    machine: str = FIG1_MACHINE,
    threads: Sequence[int] = FIG1_THREADS,
    steps: int = FIG1_STEPS,
) -> list:
    """One observe spec per (workload, thread count), workload-major:
    the Fig. 1 replays on a fresh ``machine`` seeded with
    :data:`FIG1_SEED`."""
    from repro.runcache import observe_spec

    return [
        observe_spec(w, steps, n, machine, seed=FIG1_SEED)
        for w in workloads
        for n in threads
    ]


def fig1_speedups(
    specs: Sequence, seconds: Sequence[float]
) -> Dict[str, List[float]]:
    """``{workload: speedups}`` of a swept :func:`fig1_specs` grid, each
    curve relative to its workload's first thread count."""
    runs: Dict[str, List[float]] = {}
    for spec, s in zip(specs, seconds):
        runs.setdefault(spec.workload, []).append(s)
    return {w: [t[0] / x for x in t] for w, t in runs.items()}


class Check(NamedTuple):
    """One scored target: what was measured against what was wanted."""

    label: str
    measured: str
    target: str
    ok: bool


def table1_checks(rows: Sequence[Mapping]) -> List[Check]:
    """Every TABLE I cell of each measured row (keyed by ``Benchmark``)."""
    checks = []
    for row in rows:
        want = TABLE1[row["Benchmark"]]
        got = table1_cells(row)
        checks.append(Check(
            f"Table I: {row['Benchmark']}",
            "/".join(str(v) for v in got),
            "/".join(str(v) for v in want),
            got == want,
        ))
    return checks


def fig1_band_checks(speedup4: Mapping[str, float]) -> List[Check]:
    """Each paper workload's 4-thread speedup inside its band, plus the
    salt > nanocar > Al-1000 ordering."""
    checks = []
    for name in FIG1_ORDER:
        lo, hi = FIG1_BANDS[name]
        s4 = speedup4[name]
        checks.append(Check(
            f"Fig. 1 @4 cores: {name}",
            f"{s4:.2f}x",
            f"{FIG1_PAPER[name]:.2f}x (band {lo}-{hi})",
            lo <= s4 <= hi,
        ))
    ordered = all(
        speedup4[a] > speedup4[b] for a, b in zip(FIG1_ORDER, FIG1_ORDER[1:])
    )
    shape = " > ".join(FIG1_ORDER)
    checks.append(Check("Fig. 1 ordering", shape, shape, ordered))
    return checks


def fig1_shape_checks(curves: Mapping[str, Sequence[float]]) -> List[Check]:
    """The whole-curve shape over ``FIG1_THREADS``: no large regression
    as cores are added, and Al-1000's early saturation."""
    checks = []
    for name in FIG1_ORDER:
        s = curves[name]
        checks.append(Check(
            f"Fig. 1 monotone: {name}",
            " ".join(f"{v:.2f}" for v in s),
            f"each >= {FIG1_MONOTONE_FLOOR} x previous",
            all(b >= a * FIG1_MONOTONE_FLOOR for a, b in zip(s, s[1:])),
        ))
    al = curves["Al-1000"]
    gain = al[FIG1_THREADS.index(4)] / al[FIG1_THREADS.index(2)]
    checks.append(Check(
        "Fig. 1 Al-1000 4/2 gain", f"{gain:.3f}",
        f"< {FIG1_AL1000_SATURATION}", gain < FIG1_AL1000_SATURATION,
    ))
    return checks


# -- TABLE III: runtime vs pinning topology (Al-1000, 4 x Xeon X7560) --------

TABLE3_MACHINE = "x7560x4"
TABLE3_WORKLOAD = "Al-1000"
#: machine seed of every Table III replay
TABLE3_SEED = 3
#: the paper's runtimes in seconds, in its row order
TABLE3_PAPER = {
    "4, one core per processor": 172.2,
    "4, 4 cores on one processor": 154.7,
    "4, OS scheduled": 147.3,
    "8, OS scheduled": 164.3,
    "8, two cores per processor": 132.0,
    "8, 8 cores on one processor": 103.7,
    "32, OS scheduled": 100.2,
}


def table3_configs(topology) -> List[Tuple[str, int, object]]:
    """``(label, threads, pinning mask or None)`` for each paper row;
    ``None`` leaves placement to the OS scheduler."""
    return [
        ("4, one core per processor", 4,
         topology.mask_one_core_per_socket(4)),
        ("4, 4 cores on one processor", 4,
         topology.mask_cores_on_one_socket(4)),
        ("4, OS scheduled", 4, None),
        ("8, OS scheduled", 8, None),
        ("8, two cores per processor", 8,
         topology.mask_n_cores_per_socket(2)),
        ("8, 8 cores on one processor", 8,
         topology.mask_cores_on_one_socket(8)),
        ("32, OS scheduled", 32, None),
    ]


def table3_specs(steps: int, seed: int = TABLE3_SEED) -> dict:
    """``{row label: observe spec}`` in paper row order: Al-1000 on the
    4 x Xeon X7560 under the ``"table3"`` background load, one
    single-thread pool per worker (§V-B), each step twice; a pinned row
    binds worker i to its mask's i-th PU."""
    from repro.machine import MACHINES, Topology
    from repro.runcache import observe_spec

    specs = {}
    for label, n, mask in table3_configs(Topology(MACHINES[TABLE3_MACHINE])):
        affinities = None
        if mask is not None:
            pus = sorted(mask)
            affinities = [[pus[i % len(pus)]] for i in range(n)]
        specs[label] = observe_spec(
            TABLE3_WORKLOAD, steps, n, TABLE3_MACHINE,
            seed=seed, affinities=affinities,
            queue_mode="per-thread", repeat=2, load="table3",
        )
    return specs


class Relation(NamedTuple):
    """One Table III finding as a predicate over ``{label: seconds}``.
    A ``known_deviation`` is a paper finding the model does not
    reproduce (DESIGN §5c): it is scored and reported, never gated."""

    label: str
    holds: Callable[[Mapping[str, float]], bool]
    known_deviation: bool = False


def _eight_on_one_vs_32(r: Mapping[str, float]) -> bool:
    ratio = r["8, 8 cores on one processor"] / r["32, OS scheduled"]
    return 0.7 < ratio < 1.45


def _os8_slowest_of_eight(r: Mapping[str, float]) -> bool:
    eight = [label for label in r if label.startswith("8,")]
    return max(eight, key=r.get) == "8, OS scheduled"


TABLE3_RELATIONS = (
    Relation(
        "4 threads: one core per processor slower than 4 on one",
        lambda r: r["4, one core per processor"]
        > r["4, 4 cores on one processor"],
    ),
    Relation(
        "4 threads: OS scheduling beats 4 on one processor",
        lambda r: r["4, 4 cores on one processor"] > r["4, OS scheduled"],
    ),
    Relation(
        "8 pinned: one shared LLC beats two cores per processor",
        lambda r: r["8, 8 cores on one processor"]
        < r["8, two cores per processor"],
    ),
    Relation(
        "pinning pays once cores suffice: 8 on one beats 4 OS",
        lambda r: r["8, 8 cores on one processor"] < r["4, OS scheduled"],
    ),
    Relation(
        "8 on one processor comparable to 32 OS (ratio in 0.7-1.45)",
        _eight_on_one_vs_32,
    ),
    Relation(
        "32 OS scheduled among the fastest three rows",
        lambda r: "32, OS scheduled" in sorted(r, key=r.get)[:3],
    ),
    Relation(
        "8 OS scheduled is the slowest 8-thread row",
        _os8_slowest_of_eight,
        known_deviation=True,
    ),
)


# -- attribution, autotuner and leaderboard bounds ---------------------------

#: speedup-loss buckets must sum to the gap within this, relative to
#: the achieved time (the attribution sweep's conservation law)
ATTRIBUTION_REL_TOL = 1e-6
#: Al-1000 at one thread per physical core of the i7-920 (§V): the gap
#: is work inflation in the forces phase, LJ its largest kernel
ATTRIBUTION_AL1000 = {
    "threads": 4,
    "bucket": "work_inflation",
    "phase": "forces",
    "kernel": "lj",
}
#: collapsed-stack lines the Al-1000 x4 flamegraph must hold at least
FOLDED_MIN_LINES = 5

#: the autotuner's buckets conserve the gap to this absolute error
AUTOTUNE_CONSERVATION_TOL = 1e-9

LEADERBOARD_MIN_TOOLS = 8
#: workloads x machines the leaderboard grid must span at least
LEADERBOARD_GRID = (3, 3)
#: JXPerf's top wasteful-op site is the Vector3 temporary churn (§V-B)
LEADERBOARD_TOP_CLASS = "org.mw.math.Vector3"
#: timers outside the barrier distort phase times by at least this
#: much more than barrier-synced timers
LEADERBOARD_MIN_TIMER_GAP = 0.005
LEADERBOARD_MIN_HIT_RATE = 0.9
