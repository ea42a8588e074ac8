"""Import footprint gate: the package's entry points and the nanocar
builder load neither scipy nor networkx, and the CLI's ``--version``,
help and usage errors load no numpy.

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
