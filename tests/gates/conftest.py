"""The output directory of the gates whose rendered reports ship as CI
artifacts."""

import shutil

import pytest

from tests.gates._checks import OUT_DIR


@pytest.fixture()
def shipped_dir(request):
    """``benchmarks/out/<gate module>``, emptied first."""
    path = OUT_DIR / request.module.__name__.rsplit(".", 1)[-1]
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
