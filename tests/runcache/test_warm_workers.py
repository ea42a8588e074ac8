"""Pool workers start warm: the allocator initializer and the parent's
pre-fork imports (:mod:`repro.runcache.resilience`,
:func:`repro.runcache.sweep.import_executors`)."""

import ctypes
import os
import sys

import pytest

from repro.runcache import RunCache, capture_spec, resilience, sweep
from repro.runcache.resilience import (
    M_MMAP_THRESHOLD,
    M_TRIM_THRESHOLD,
    WORKER_MMAP_THRESHOLD,
    WORKER_TRIM_THRESHOLD,
    _pin_malloc_thresholds,
)
from repro.runcache.sweep import _EXECUTORS, import_executors


def test_every_pool_worker_runs_the_initializer_and_the_caller_never(
    tmp_path, monkeypatch
):
    pinned = {}

    def record():
        pinned["pid"] = os.getpid()

    def probe(spec, cache):
        return pinned.get("pid") == os.getpid()

    monkeypatch.setattr(resilience, "_pin_malloc_thresholds", record)
    monkeypatch.setitem(_EXECUTORS, "capture", probe)
    specs = [capture_spec("salt", 1), capture_spec("nanocar", 1)]
    result = sweep(specs, RunCache(tmp_path / "store"), jobs=2)
    if not result.fanout or result.degraded:  # pragma: no cover
        pytest.skip("process pool unavailable")
    assert result.artifacts == [True, True]
    assert pinned == {}


class _Lib:
    """A C library whose ``mallopt`` records its calls (a plain
    function, so ``argtypes``/``restype`` can be set on it)."""

    def __init__(self):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1

        self.mallopt = mallopt


def test_initializer_fixes_both_glibc_thresholds(monkeypatch):
    lib = _Lib()
    monkeypatch.setattr(resilience.ctypes, "CDLL", lambda name: lib)
    _pin_malloc_thresholds()
    assert lib.calls == [
        (M_MMAP_THRESHOLD, WORKER_MMAP_THRESHOLD),
        (M_TRIM_THRESHOLD, WORKER_TRIM_THRESHOLD),
    ]
    assert lib.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    assert lib.mallopt.restype is ctypes.c_int
    # glibc's constants (<malloc.h>); 32 MiB is the largest mmap
    # threshold glibc accepts on a 64-bit host
    assert (M_TRIM_THRESHOLD, M_MMAP_THRESHOLD) == (-1, -3)
    assert WORKER_MMAP_THRESHOLD == 32 * 2**20


def test_initializer_is_a_noop_without_libc(monkeypatch):
    def missing(name):
        raise OSError("no C library")

    monkeypatch.setattr(resilience.ctypes, "CDLL", missing)
    assert _pin_malloc_thresholds() is None


def test_initializer_is_a_noop_without_mallopt(monkeypatch):
    monkeypatch.setattr(resilience.ctypes, "CDLL", lambda name: object())
    assert _pin_malloc_thresholds() is None


def test_import_executors_loads_capture_modules_for_every_kind(monkeypatch):
    imported = []
    monkeypatch.setattr(
        sys.modules["repro.runcache.sweep"].importlib, "import_module",
        imported.append,
    )
    import_executors({"capture"})
    captures = list(imported)
    assert {"numpy.random", "numpy.ma", "repro.workloads"} <= set(captures)
    assert "repro.obs" not in captures

    imported.clear()
    import_executors({"observe", "capture"})
    assert imported[:len(captures)] == captures
    assert {"repro.obs", "repro.faults"} <= set(imported)
