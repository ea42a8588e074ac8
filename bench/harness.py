"""Spawning workload processes and assembling their results.

Each workload runs in fresh subprocesses, one after another: first
``SETUPS - 1`` processes that only set up (so ``setup_s`` is a median,
not one sample), then the process that measures.  The parent starts no
other load.  Every child gets the environment a clean checkout would
see: ``src`` on the path, no ``REPRO_*`` variable (so a user's cache can
never make a cold run warm), and a temporary directory under the
output directory, so nothing is written outside it.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "bench" / "out"
RESULTS_SCHEMA = "repro.bench/1"
#: set-ups per workload run; ``setup_s`` is their median
SETUPS = 3

#: the end-to-end metrics, per workload: name -> unit
END_TO_END = {
    "sweep_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}


class BenchError(RuntimeError):
    """A workload process failed or overran its time."""


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"must be >= 0: {value}")
    return value


def _spawn(name: str, seed: int, out: Path, flags: List[str],
           deadline: Optional[float]) -> dict:
    """Run one ``bench measure`` process to completion; returns the
    result document it wrote."""
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp), PYTHONHASHSEED="0"
    )
    result = out / "result.json"
    result.unlink(missing_ok=True)
    cmd = [
        sys.executable, "-m", "bench", "measure", "--workload", name,
        "--seed", str(seed), "--out", str(out), *flags,
    ]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = proc.wait(
            timeout=None if deadline is None
            else max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: measuring process overran its time")
    finally:
        # the whole session: pool workers a killed child left behind too
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    if code != 0:
        raise BenchError(f"{name}: measuring process exited with {code}")
    return json.loads(result.read_text())


def run_workload(
    name: str,
    seed: int,
    out: Path,
    *,
    reps: Optional[int] = None,
    seconds: float = 0.0,
    trace_dir: Optional[Path] = None,
    smoke: bool = False,
    deadline: Optional[float] = None,
) -> dict:
    """Set up ``SETUPS - 1`` times, then measure; returns the measuring
    process's document with every set-up sample in ``setup_s`` (and
    ``setup_raw_s``)."""
    # measure this checkout's program, never an installed copy
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program to measure under {ROOT / 'src'}")
    common = ["--smoke"] if smoke else []
    setups = []
    for k in range(SETUPS - 1):
        probe = out / f"setup-{k}"
        setups.append(
            _spawn(name, seed, probe, common + ["--setup-only"], deadline)
        )
        shutil.rmtree(probe, ignore_errors=True)
    flags = list(common)
    flags += ["--reps", str(reps)] if reps else ["--seconds", str(seconds)]
    if trace_dir is not None:
        flags += ["--trace-dir", str(trace_dir)]
    doc = _spawn(name, seed, out, flags, deadline)
    for key in ("setup_s", "setup_raw_s"):
        doc[key] = [s[key] for s in setups] + [doc[key]]
    return doc


def summary(values: List[float]) -> dict:
    """Median, quartiles and sample count."""
    med = statistics.median(values)
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1
        else (med, med, med)
    )
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(doc: dict) -> Dict[str, dict]:
    """The end-to-end metrics of one workload's result document."""
    out = {
        name: summary(doc[name]) for name in ("sweep_s", "cpu_s", "setup_s")
    }
    out["peak_rss_mb"] = {"value": doc["peak_rss_mb"], "n": 1}
    out["fail_ratio"] = {
        "value": doc["failed"] / doc["attempted"], "n": doc["attempted"]
    }
    for name, unit in END_TO_END.items():
        out[name]["unit"] = unit
    return out


def format_end_to_end(name: str, metrics: Dict[str, dict]) -> List[str]:
    lines = []
    for metric, m in metrics.items():
        spread = (
            f"  q1 {m['q1']:.4f}  q3 {m['q3']:.4f}" if "q1" in m else ""
        )
        lines.append(
            f"{name:<14}{metric:<13}{m['value']:>12.4f} {m['unit']:<6}"
            f"n={m['n']:<5}{spread}"
        )
    return lines
