"""Import footprint gate: the package's entry points and the nanocar
builder load neither scipy nor networkx.

Every ``repro`` command, sweep worker and benchmark process pays for
what these modules import at start-up.  The check runs in a fresh
interpreter, so nothing an earlier test imported can mask a regression,
and it reads ``sys.modules`` only — no timing.
"""

import os
import subprocess
import sys
from pathlib import Path

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
