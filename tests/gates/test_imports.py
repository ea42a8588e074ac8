"""Import footprint gate: the package's entry points and the nanocar
builder load neither scipy nor networkx, the CLI's ``--version``,
help and usage errors load no numpy, and pool workers import nothing
their parent had not loaded before the fork.

Every ``repro`` command, sweep worker and benchmark process pays for
what these modules import at start-up.  The checks run in fresh
interpreters, so nothing an earlier test imported can mask a
regression, and they read which modules were imported only — no
timing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

_PROBE = """
import sys
import repro.cli, repro.runcache, repro.workloads, repro.obs.attribution
from repro.workloads import build_nanocar
build_nanocar()
loaded = {name.split(".")[0] for name in sys.modules}
print(" ".join(sorted(loaded & {"scipy", "networkx"})))
"""


def test_entry_points_and_nanocar_import_no_scipy_or_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == []


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--version"], 0),
        ([], 2),                      # no command: help
        (["fig1", "--steps", "0"], 2),  # a usage error
        (["no-such-command"], 2),
    ],
)
def test_cli_version_help_and_usage_errors_import_no_numpy(argv, code):
    """``python -m repro`` imports each command's modules only when
    the command runs; ``-X importtime`` lists every module the
    interpreter imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *argv],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == code
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "repro.cli" in imported
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []


_WORKER_PROBE = r'''
import os, sys, tempfile

PARENT = os.getpid()
LOG = sys.argv[1]


class Recorder:
    """Logs each module a process other than the parent imports."""

    def find_spec(self, name, path=None, target=None):
        if os.getpid() != PARENT:
            with open(LOG, "a") as fh:
                fh.write(name + "\n")
        return None


sys.meta_path.insert(0, Recorder())
from repro.runcache import (
    RunCache, capture_spec, observe_spec, sweep, toolerror_spec, trace_spec,
)
from repro.telemetry import runtime

specs = [
    capture_spec("gas-8", 2, seed=1),  # a batch of two
    capture_spec("gas-8", 2, seed=2),
    observe_spec("nanocar", 1, 2, "i7-920"),
    trace_spec("nanocar", 1, 2, "i7-920"),
    toolerror_spec("nanocar", 1, 2, "i7-920"),
]
with tempfile.TemporaryDirectory() as tmp:
    runtime.activate(os.path.join(tmp, "telemetry"))
    try:
        result = sweep(specs, RunCache(os.path.join(tmp, "store")), jobs=2)
    finally:
        runtime.deactivate()
print(result.ok and result.fanout and not result.degraded)
'''


def test_pool_workers_import_nothing_the_parent_had_not_loaded(tmp_path):
    """A forked worker inherits its parent's modules and pays for any
    other import itself, in every worker of every sweep.  A finder at
    the head of ``sys.meta_path`` (inherited too) logs every import
    made in a process other than the parent: a traced pooled sweep over
    a capture batch and observe, trace and toolerror specs must log
    none."""
    log = tmp_path / "imports.log"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER_PROBE, str(log)],
        env=env, capture_output=True, text=True, check=True,
    )
    if proc.stdout.split() != ["True"]:  # pragma: no cover - no-pool box
        pytest.skip("process pool unavailable; sweep fell back to serial")
    imported = log.read_text().split() if log.exists() else []
    assert imported == []
