"""Tests for inspector/executor runtime data reordering."""

import numpy as np
import pytest

from repro.core import (
    index_locality,
    reorder_system,
    spatial_order,
)
from repro.md import LennardJonesForce, MDEngine
from repro.md.boundary import ReflectiveBox
from repro.md.neighbors import NeighborList
from repro.workloads import build_al1000, build_nanocar


def shuffled_al1000(seed=0):
    wl = build_al1000(seed=1)
    system = wl.system.copy()
    rng = np.random.default_rng(seed)
    system.permute(rng.permutation(system.n_atoms))
    return system, wl.forces


def test_spatial_order_is_permutation():
    system, _ = shuffled_al1000()
    order = spatial_order(system.positions, system.box, cell_size=6.0)
    assert sorted(order.tolist()) == list(range(system.n_atoms))


def test_spatial_order_groups_cells():
    """Consecutively ordered atoms are spatially close."""
    system, _ = shuffled_al1000()
    order = spatial_order(system.positions, system.box, cell_size=6.0)
    pos = system.positions[order]
    gaps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    # the median consecutive-atom distance is within a cell diagonal
    assert np.median(gaps) < 6.0 * np.sqrt(3)


def test_reorder_improves_index_locality():
    system, forces = shuffled_al1000()
    result = reorder_system(system, forces)
    assert result.locality_after < result.locality_before * 0.5
    assert result.improvement > 0.5


def test_reorder_preserves_energy_and_dynamics():
    """The executor is physically a no-op: same energy, same trajectory
    (up to the relabeling)."""
    wl = build_nanocar(seed=1)
    ref_engine = MDEngine(wl.system.copy(), wl.forces, dt_fs=wl.dt_fs)
    ref_engine.run(5)

    system = wl.system.copy()
    result = reorder_system(system, wl.forces)
    engine = MDEngine(system, result.forces, dt_fs=wl.dt_fs)
    engine.run(5)

    # map the reordered trajectory back to original atom labels
    back = engine.system.positions[result.inverse]
    assert np.allclose(back, ref_engine.system.positions, atol=1e-9)


def test_reorder_remaps_all_force_types():
    wl = build_nanocar(seed=1)
    system = wl.system.copy()
    result = reorder_system(system, wl.forces)
    boundary = ReflectiveBox(system.box)
    nl = NeighborList(cutoff=2.5 * float(system.sigma.max()), skin=0.8)
    nl.build(system.positions, boundary)
    ref_engine = MDEngine(wl.system.copy(), wl.forces, dt_fs=1.0)
    for orig, remapped in zip(wl.forces, result.forces):
        out = np.zeros_like(system.positions)
        res = remapped.compute(system, boundary, nl, out)
        ref_out = np.zeros_like(system.positions)
        ref_engine.prime()
        ref_res = orig.compute(
            ref_engine.system,
            ref_engine.boundary,
            ref_engine.neighbors,
            ref_out,
        )
        assert res.energy == pytest.approx(ref_res.energy, rel=1e-9)
        assert res.terms == ref_res.terms


def test_index_locality_metric():
    assert index_locality(np.array([0, 1]), np.array([1, 2])) == 1.0
    assert index_locality(np.array([]), np.array([])) == 0.0
    assert index_locality(np.array([0]), np.array([100])) == 100.0


def test_coulomb_remap_is_identity():
    from repro.md import CoulombForce

    c = CoulombForce()
    assert c.remap(np.arange(10)) is c
