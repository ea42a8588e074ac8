"""Shared fixtures for the experiment benchmarks.

Physics (the expensive part) runs once per workload per session; every
benchmark then replays the captured work trace on simulated machines.
Each experiment writes its paper-style output into ``benchmarks/out/``
so the regenerated tables and figures survive the pytest capture.
"""

from __future__ import annotations

import os
import pathlib

import pytest
from _util import TRACE_STEPS

from repro.runcache import RunCache, cached_capture
from repro.workloads import BUILDERS, PAPER_WORKLOADS

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def run_cache():
    """The content-addressed run cache the experiments sweep through
    (byte-exact by construction); ``REPRO_RUNCACHE_DISABLE=1`` makes it
    None, so everything re-simulates."""
    return None if os.environ.get("REPRO_RUNCACHE_DISABLE") else RunCache()


@pytest.fixture(scope="session")
def traces(run_cache):
    """{name: (workload, [StepReport, ...])} for the three benchmarks,
    captured through the ``run_cache`` fixture."""
    return {
        name: (BUILDERS[name](), cached_capture(run_cache, name, TRACE_STEPS))
        for name in PAPER_WORKLOADS
    }


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR

