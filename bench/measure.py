"""Measuring one workload inside its own process.

The harness spawns this for every workload.  Set-up (imports, the code
salt, cache fills and one discarded warm-up repetition) is timed from
the moment the parent spawned the process.  Then the timed
repetitions run with telemetry off — a closed loop: one sweep is
issued, awaited and attributed before the next — followed, when
asked, by the traced pass.

Timings are reported at the reference host speed.  A shared 2-vCPU VM
changes speed by up to 1.7× in episodes lasting seconds to minutes, so
a fixed calibration loop is timed on each pool CPU after
set-up and after every repetition, and each reading is scaled by
``CAL_REFERENCE_S`` over the calibration time around it.  The raw
readings are kept beside the scaled ones.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import time
from collections import Counter
from pathlib import Path
from typing import List, Optional

import numpy as np

from bench.workloads import SCALAR_CHECKS, Definition, Workload

#: fewest timed repetitions a time-bounded run takes
MIN_REPS = 3
#: most pool workers, so memory stays bounded on hosts with many CPUs
JOBS_CAP = 4
#: seconds one calibration loop takes at the reference host speed: about
#: its time on a 2-vCPU Xeon VM when no other tenant slows it
CAL_REFERENCE_S = 0.004
#: calibration loops per CPU; the median is kept
CAL_LOOPS = 7
_CAL_ARRAY = np.arange(20000, dtype=np.float64)


def pool_width() -> int:
    """J: the CPUs this process may run on, at most ``JOBS_CAP``."""
    from repro.runcache import default_jobs

    return min(default_jobs(), JOBS_CAP)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's and its largest child's peak RSS
    (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _cal_loop() -> float:
    """Seconds of one fixed mix of interpreter, numpy and pickle work,
    the three kinds of work a sweep does."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(10000):
        counts[i % 997] = counts.get(i % 997, 0) + i * 3
    for _ in range(20):
        np.sqrt(_CAL_ARRAY * 1.0000001 + 0.5)
    items = [(i, float(i), str(i)) for i in range(3000)]
    pickle.loads(pickle.dumps(items, protocol=4))
    return time.perf_counter() - t0


def calibrate(cpus: List[int]) -> float:
    """Mean over ``cpus`` of the calibration loop's median time with
    this process pinned to each in turn.  Each CPU of a shared host has
    its own slow episodes, and the pool's workers run on all of them."""
    mask = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(
                statistics.median(_cal_loop() for _ in range(CAL_LOOPS))
            )
    finally:
        os.sched_setaffinity(0, mask)
    return statistics.mean(per_cpu)


def reap_children(timeout: float = 30.0) -> None:
    """Wait for the pool's workers to exit.  The sweep shuts its pool
    down without waiting, and a worker's CPU time reaches
    ``RUSAGE_CHILDREN`` only once it has been reaped."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.001)


def host_info(salt: str) -> dict:
    root = Path(__file__).resolve().parent.parent
    try:
        # the ceiling keeps git from finding a repository above the
        # checkout when the checkout itself is not one
        head = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = ""
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "code_version_salt": salt,
        "git_head": head or "unknown",
    }


def measure(
    definition: Definition,
    seed: int,
    scratch: Path,
    *,
    jobs: int,
    spawned_at: float,
    reps: Optional[int] = None,
    seconds: float = 0.0,
    trace_dir: Optional[Path] = None,
    setup_only: bool = False,
) -> dict:
    """Measure one workload; returns its result document.

    ``reps`` fixes the number of timed repetitions; without it the
    loop repeats for ``seconds`` (at least ``MIN_REPS`` times).
    """
    from repro.runcache import code_version_salt

    salt = code_version_salt()
    wl = Workload(definition, seed, scratch)
    cal_cpus = sorted(os.sched_getaffinity(0))[:jobs]
    fails: Counter = Counter()
    attempted = 0

    def rep_once(width: int):
        root = wl.prepare()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        rep = wl.run(root, width)
        wall = time.perf_counter() - t0
        reap_children()
        cpu = cpu_seconds() - cpu0
        wl.release(root)
        return rep, wall, cpu

    wl.setup(jobs)
    rep, _wall, _cpu = rep_once(jobs)  # warm-up, never timed
    setup_s = time.monotonic() - spawned_at
    cals = [calibrate(cal_cpus)]
    setup = {"setup_s": setup_s * CAL_REFERENCE_S / cals[0],
             "setup_raw_s": setup_s}
    if setup_only:
        shutil.rmtree(scratch, ignore_errors=True)
        return setup
    fails += wl.check(rep)
    attempted += len(wl.specs)

    walls, cpus = [], []
    deadline = time.monotonic() + seconds
    while len(walls) < (reps or MIN_REPS) or (
        reps is None and time.monotonic() < deadline
    ):
        rep, wall, cpu = rep_once(jobs)
        cals.append(calibrate(cal_cpus))
        walls.append(wall)
        cpus.append(cpu)
        fails += wl.check(rep)
        attempted += len(wl.specs)
    peak = peak_rss_mb()
    # each repetition at the mean host speed measured either side of it
    scale = [
        CAL_REFERENCE_S / statistics.mean(pair)
        for pair in zip(cals, cals[1:])
    ]
    if not definition.observes:
        fails["scalar"] += wl.scalar_mismatches()
        attempted += SCALAR_CHECKS

    ledger = None
    if trace_dir is not None:
        from bench.layers import traced_pass

        ledger, traced_fails, sweeps = traced_pass(
            wl, trace_dir, jobs=jobs,
            sweep_median=statistics.median(walls), rep_once=rep_once,
        )
        fails += traced_fails
        attempted += sweeps * len(wl.specs)
    shutil.rmtree(scratch, ignore_errors=True)
    return {
        "workload": definition.name,
        "seed": seed,
        "jobs": jobs,
        **setup,
        "sweep_s": [w * k for w, k in zip(walls, scale)],
        "cpu_s": [c * k for c, k in zip(cpus, scale)],
        "sweep_raw_s": walls,
        "cpu_raw_s": cpus,
        "cal_s": cals,
        "peak_rss_mb": peak,
        "attempted": attempted,
        "failed": sum(fails.values()),
        "checks": dict(fails),
        "ledger": ledger,
        "host": host_info(salt),
    }
