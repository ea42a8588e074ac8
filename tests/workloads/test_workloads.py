"""Tests for the three paper benchmarks and structure generators."""

import numpy as np
import pytest

from repro.targets import TABLE1, table1_cells
from repro.workloads import (
    BUILDERS,
    build_al1000,
    build_nanocar,
    build_salt,
    table1_rows,
)
from repro.workloads.generators import (
    angle_triples,
    bond_graph,
    cubic_lattice,
    fibonacci_sphere,
    grid_bonds,
    nearest_neighbor_bonds,
    random_packing,
    rocksalt_lattice,
    torsion_quads,
)


# ------------------------------------------------------------ Table I ----


def test_table1_matches_paper_exactly():
    rows = table1_rows([BUILDERS[n]() for n in TABLE1])
    assert [row["Benchmark"] for row in rows] == list(TABLE1)
    for row in rows:
        assert table1_cells(row) == TABLE1[row["Benchmark"]]


def test_salt_composition():
    wl = build_salt()
    s = wl.system
    assert int((s.charges > 0).sum()) == 400  # sodium ions
    assert int((s.charges < 0).sum()) == 400  # chloride ions
    assert float(s.charges.sum()) == 0.0  # neutral overall
    assert np.all(s.movable)
    # species interleave through the index space (balanced ownership)
    na_idx = np.nonzero(s.charges > 0)[0]
    assert na_idx.mean() == pytest.approx((s.n_atoms - 1) / 2, rel=0.05)


def test_al1000_composition():
    wl = build_al1000()
    s = wl.system
    assert s.n_atoms == 1000
    # 999 aluminum + 1 gold projectile
    au = np.nonzero(s.masses > 100)[0]
    assert len(au) == 1
    projectile = au[0]
    assert s.velocities[projectile, 0] > 0.05  # fast-moving
    # the block starts stationary
    block = np.ones(1000, dtype=bool)
    block[projectile] = False
    assert np.allclose(s.velocities[block], 0.0)


def test_al1000_frequent_rebuilds():
    """'a large number of collisions and requires frequent neighbor
    list updates'."""
    wl = build_al1000()
    engine = wl.make_engine()
    engine.prime()
    reports = engine.run(60)
    rebuilds = sum(r.rebuilt for r in reports)
    assert rebuilds >= 10


def test_nanocar_composition():
    wl = build_nanocar()
    s = wl.system
    atoms, _charged, bonds, _dominant = TABLE1["nanocar"]
    assert s.n_atoms == atoms
    fixed = ~s.movable
    assert int(fixed.sum()) == 500  # gold platform
    assert wl.n_bonds == bonds
    # platform atoms interleave with car atoms through the index space
    fixed_idx = np.nonzero(fixed)[0]
    assert fixed_idx.mean() == pytest.approx((atoms - 1) / 2, rel=0.1)
    # the car sits above the platform
    assert s.positions[s.movable, 2].min() > s.positions[fixed, 2].max()


def test_nanocar_drives():
    """The car has forward velocity and actually moves in +x."""
    wl = build_nanocar()
    engine = wl.make_engine()
    engine.prime()
    x0 = engine.system.positions[engine.system.movable, 0].mean()
    engine.run(80)
    x1 = engine.system.positions[engine.system.movable, 0].mean()
    assert x1 > x0


def test_nanocar_stays_assembled():
    """Bond energies stay bounded: the car does not explode."""
    wl = build_nanocar()
    engine = wl.make_engine()
    engine.prime()
    reports = engine.run(100)
    energies = [r.total_energy for r in reports]
    drift = abs(energies[-1] - energies[0])
    assert drift < 0.05 * max(abs(energies[0]), 1.0)
    assert np.abs(engine.system.velocities).max() < 0.2


def test_workloads_deterministic_by_seed():
    a = build_salt(seed=3)
    b = build_salt(seed=3)
    assert np.array_equal(a.system.positions, b.system.positions)
    assert np.array_equal(a.system.velocities, b.system.velocities)
    c = build_salt(seed=4)
    assert not np.array_equal(a.system.velocities, c.system.velocities)


def test_make_engine_copies_system():
    wl = build_salt()
    e1 = wl.make_engine()
    e1.run(2)
    e2 = wl.make_engine()
    assert not np.array_equal(
        e1.system.positions, wl.system.positions
    ) or not np.array_equal(e1.system.velocities, wl.system.velocities)
    assert np.array_equal(e2.system.positions, wl.system.positions)


# --------------------------------------------------------- generators ----


def test_cubic_lattice():
    pts = cubic_lattice((2, 3, 4), 1.5)
    assert pts.shape == (24, 3)
    assert pts.min() == 0.0
    assert pts[:, 2].max() == pytest.approx(4.5)
    with pytest.raises(ValueError):
        cubic_lattice((0, 1, 1), 1.0)


def test_rocksalt_lattice_alternates():
    pos, charges = rocksalt_lattice(2, 2.0)
    assert len(pos) == 64
    assert charges.sum() == 0
    # nearest neighbors have opposite charge
    d = np.linalg.norm(pos[0] - pos, axis=1)
    nn = np.argsort(d)[1]
    assert charges[0] * charges[nn] == -1.0


def test_random_packing_respects_min_dist():
    rng = np.random.default_rng(0)
    pts = random_packing(40, np.zeros(3), np.full(3, 20.0), 2.0, rng)
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 2.0


def test_random_packing_impossible_raises():
    rng = np.random.default_rng(0)
    with pytest.raises(RuntimeError):
        random_packing(1000, np.zeros(3), np.ones(3), 0.5, rng, max_tries=500)


def test_fibonacci_sphere_on_radius():
    pts = fibonacci_sphere(60, 5.0, (1.0, 2.0, 3.0))
    r = np.linalg.norm(pts - np.array([1.0, 2.0, 3.0]), axis=1)
    assert np.allclose(r, 5.0)


def test_nearest_neighbor_bonds_degree():
    pts = fibonacci_sphere(60, 8.0, (0, 0, 0))
    bonds = nearest_neighbor_bonds(pts, k=3)
    assert np.all(bonds[:, 0] < bonds[:, 1])
    # every atom participates
    assert len(np.unique(bonds)) == 60


def test_grid_bonds_count():
    bonds = grid_bonds((3, 4))
    # horizontal: 3*3=9, vertical: 2*4=8
    assert len(bonds) == 17


def test_angle_and_torsion_enumeration():
    bonds = grid_bonds((2, 3))  # a 2x3 ladder
    g = bond_graph(6, bonds)
    angles = angle_triples(g)
    assert len(angles) > 0
    assert all(g.has_edge(a, b) and g.has_edge(b, c) for a, b, c in angles)
    quads = torsion_quads(g)
    assert len(quads) > 0
    for a, b, c, d in quads:
        assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
        assert len({a, b, c, d}) == 4


def test_stride_sampling_spreads_selection():
    bonds = grid_bonds((5, 20))
    g = bond_graph(100, bonds)
    full = angle_triples(g)
    sampled = angle_triples(g, limit=40)
    assert len(sampled) == 40
    # sampled owners span the structure, not just the low indices
    assert sampled[:, 1].max() > 60
