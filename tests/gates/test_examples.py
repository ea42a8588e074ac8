"""Examples gate: every script under ``examples/`` runs to completion.

Each script runs in a fresh interpreter with ``PYTHONPATH=src``, the
way a user runs it, against a run cache of its own, and must exit 0
and print a line it is written to print.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: script -> a line it prints once its work is done
EXPECTED = {
    "quickstart": "parallel: 4 threads, trajectory matches serial: True",
    "salt_melt": "neighbor rebuilds over the run:",
    "nanocar_drive": "car still assembled after 300 fs of driving.",
    "perf_study": "  WARNING: worker-0, worker-1 share physical core 0",
}


def test_every_example_is_gated():
    assert sorted(p.stem for p in (ROOT / "examples").glob("*.py")) == sorted(
        EXPECTED
    )


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_example_runs(script, tmp_path):
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"),
        REPRO_RUNCACHE_DIR=str(tmp_path / "runcache"),
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{script}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert any(
        line.startswith(EXPECTED[script])
        for line in proc.stdout.splitlines()
    ), proc.stdout[-2000:]
