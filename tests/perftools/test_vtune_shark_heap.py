"""Tests for the VTune, heap-viewer and topology-report models."""

import numpy as np
import pytest

from repro.core import SimulatedParallelRun, capture_trace
from repro.jvm import AllocationRecorder, Heap, PlacementPolicy
from repro.machine import CORE_I7_920, SimMachine, XEON_X7560_4S
from repro.perftools import (
    HeapViewer,
    VTune,
    topology_report,
)
from repro.workloads import build_al1000


@pytest.fixture(scope="module")
def unpinned_run():
    wl = build_al1000(seed=1)
    trace = capture_trace(wl, 20)
    machine = SimMachine(CORE_I7_920, seed=7, migrate_prob=0.3)
    SimulatedParallelRun(trace, wl.system.n_atoms, machine, 4, name="al").run()
    workers = [f"al-pool-worker-{i}" for i in range(4)]
    return machine, workers


def test_vtune_fig2_migration_without_pinning(unpinned_run):
    """Fig. 2: 'even in a four core system, the degree of thread
    affinity was quite low' — the worker visits many PUs."""
    machine, workers = unpinned_run
    vtune = VTune(machine)
    for w in workers:
        assert vtune.migrations(w) > 5
        assert vtune.cores_visited(w) >= 3
    plot = vtune.thread_to_core_plot(workers)
    assert "worker-0" in plot
    # multiple non-blank residency cells per worker row
    rows = plot.splitlines()[1:]
    for row in rows:
        cells = row[10:]
        assert sum(1 for c in cells if c in "#+.") >= 3


def test_vtune_pinned_thread_stays_put():
    wl = build_al1000(seed=1)
    trace = capture_trace(wl, 10)
    machine = SimMachine(CORE_I7_920, seed=7, migrate_prob=0.3)
    aff = [[0], [2], [4], [6]]
    SimulatedParallelRun(
        trace, wl.system.n_atoms, machine, 4, affinities=aff, name="al"
    ).run()
    vtune = VTune(machine)
    for i in range(4):
        w = f"al-pool-worker-{i}"
        assert vtune.migrations(w) == 0
        assert vtune.cores_visited(w) == 1


def test_vtune_llc_miss_rates(unpinned_run):
    machine, _ = unpinned_run
    rates = vtune_rates = VTune(machine).llc_miss_rates()
    assert set(rates) == {0}  # i7: one LLC
    assert 0.0 < rates[0] < 1.0


def test_vtune_bandwidth_report(unpinned_run):
    machine, _ = unpinned_run
    report = VTune(machine).memory_bandwidth_report()
    assert report[0]["bytes_served"] > 0


def test_heap_viewer_faithful_and_extended():
    rec = AllocationRecorder()
    rec.record("org.mw.md.Atom", 96, thread="main", tenured=True, count=1000)
    rec.record("org.mw.math.Vector3", 40, thread="worker-1", count=9000)
    viewer = HeapViewer(rec)
    view = viewer.live_objects_view()
    assert view[0][0] == "org.mw.math.Vector3"  # dominates by bytes
    cls, frac = viewer.dominant_class()
    assert cls == "org.mw.math.Vector3" and frac > 0.5
    # the faithful view carries no thread info; the extended one does
    assert all(len(row) == 3 for row in view)
    by_thread = viewer.by_thread_view()
    assert by_thread[("org.mw.math.Vector3", "worker-1")].count == 9000
    assert "Vector3" in viewer.render()


def test_heap_viewer_spatial_view_requires_heap():
    rec = AllocationRecorder()
    viewer = HeapViewer(rec)
    with pytest.raises(RuntimeError):
        viewer.spatial_view([])
    heap = Heap(policy=PlacementPolicy.BUMP)
    objs = [heap.allocate("X", 40) for _ in range(5)]
    viewer2 = HeapViewer(rec, heap)
    spatial = viewer2.spatial_view(objs)
    assert spatial == sorted(spatial)
    assert viewer2.adjacency_score(objs) == 1.0


def test_topology_report_contents():
    text = topology_report(XEON_X7560_4S)
    assert "Socket P#3" in text
    assert "SMT sibling sets:" in text
    assert "LLC sharing groups:" in text
    assert "LLC#3" in text


def test_topology_report_flags_smt_conflicts():
    text = topology_report(
        CORE_I7_920, pinned={"worker-0": 0, "worker-1": 1}
    )
    assert "WARNING" in text and "share physical core 0" in text
    clean = topology_report(
        CORE_I7_920, pinned={"worker-0": 0, "worker-1": 2}
    )
    assert "WARNING" not in clean
