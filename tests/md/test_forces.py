"""Force-field correctness: analytic forces vs numerical gradients,
conservation laws, and known closed-form values."""

import numpy as np
import pytest

from repro.md import (
    AngularBondForce,
    AtomSystem,
    CoulombForce,
    LennardJonesForce,
    NeighborList,
    RadialBondForce,
    TorsionalBondForce,
)
from repro.md.boundary import ReflectiveBox
from repro.md.units import COULOMB_K

BOX = np.array([60.0, 60.0, 60.0])


def make_system(element, positions, charges=None, movable=True):
    s = AtomSystem(BOX)
    s.add_atoms(element, positions, charges=charges, movable=movable)
    return s


def eval_force(force, system, with_nlist=False, cutoff=12.0):
    boundary = ReflectiveBox(system.box)
    nl = None
    if with_nlist:
        nl = NeighborList(cutoff=cutoff, skin=1.0)
        nl.build(system.positions, boundary)
    out = np.zeros_like(system.positions)
    res = force.compute(system, boundary, nl, out)
    return res, out


def numerical_gradient(force, system, with_nlist=False, h=1e-6, cutoff=12.0):
    """-dU/dx by central differences, atom by atom, coordinate by
    coordinate."""
    grad = np.zeros_like(system.positions)
    for a in range(system.n_atoms):
        for d in range(3):
            orig = system.positions[a, d]
            system.positions[a, d] = orig + h
            ep, _ = eval_force(force, system, with_nlist, cutoff)
            system.positions[a, d] = orig - h
            em, _ = eval_force(force, system, with_nlist, cutoff)
            system.positions[a, d] = orig
            grad[a, d] = -(ep.energy - em.energy) / (2 * h)
    return grad


# ---------------------------------------------------------------- LJ ----


def test_lj_zero_force_at_minimum():
    sigma = 2.62  # Al
    r_min = 2 ** (1 / 6) * sigma
    s = make_system("Al", [[10, 10, 10], [10 + r_min, 10, 10]])
    res, f = eval_force(LennardJonesForce(), s, with_nlist=True)
    assert np.allclose(f, 0.0, atol=1e-10)
    assert res.terms == 1


def test_lj_repulsive_inside_attractive_outside():
    sigma = 2.62
    r_min = 2 ** (1 / 6) * sigma
    close = make_system("Al", [[10, 10, 10], [10 + 0.8 * r_min, 10, 10]])
    _, f_close = eval_force(LennardJonesForce(), close, with_nlist=True)
    assert f_close[0, 0] < 0  # pushed apart
    far = make_system("Al", [[10, 10, 10], [10 + 1.5 * r_min, 10, 10]])
    _, f_far = eval_force(LennardJonesForce(), far, with_nlist=True)
    assert f_far[0, 0] > 0  # pulled together


def test_lj_matches_numerical_gradient():
    rng = np.random.default_rng(0)
    pos = np.array([20.0, 20.0, 20.0]) + rng.uniform(0, 6, (6, 3))
    s = make_system("Al", pos)
    force = LennardJonesForce()
    _, analytic = eval_force(force, s, with_nlist=True)
    numeric = numerical_gradient(force, s, with_nlist=True)
    assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_lj_newtons_third_law():
    rng = np.random.default_rng(1)
    pos = np.array([20.0, 20.0, 20.0]) + rng.uniform(0, 8, (20, 3))
    s = make_system("Al", pos)
    _, f = eval_force(LennardJonesForce(), s, with_nlist=True)
    assert np.allclose(f.sum(axis=0), 0.0, atol=1e-10)


def test_lj_beyond_cutoff_zero():
    s = make_system("Al", [[5, 5, 5], [40, 40, 40]])
    res, f = eval_force(LennardJonesForce(), s, with_nlist=True, cutoff=10.0)
    assert res.terms == 0
    assert np.all(f == 0.0)


def test_lj_fixed_pairs_skipped():
    """Platform atoms don't interact with one another (nanocar)."""
    s = make_system("Au", [[10, 10, 10], [12.5, 10, 10]], movable=False)
    res, f = eval_force(LennardJonesForce(), s, with_nlist=True)
    assert res.terms == 0
    # but a movable atom near a fixed one does interact
    s2 = AtomSystem(BOX)
    s2.add_atoms("Au", [[10, 10, 10]], movable=False)
    s2.add_atoms("Au", [[12.5, 10, 10]], movable=True)
    res2, _ = eval_force(LennardJonesForce(), s2, with_nlist=True)
    assert res2.terms == 1


def test_lj_exclusions():
    s = make_system("Al", [[10, 10, 10], [12.5, 10, 10], [15, 10, 10]])
    excl = LennardJonesForce(exclusions=np.array([[0, 1]]))
    res, _ = eval_force(excl, s, with_nlist=True)
    # pairs (0,2) and (1,2) survive; (0,1) excluded
    assert res.terms == 2


def test_lj_work_counts_ownership():
    rng = np.random.default_rng(2)
    pos = np.array([20.0, 20.0, 20.0]) + rng.uniform(0, 8, (30, 3))
    s = make_system("Al", pos)
    res, _ = eval_force(LennardJonesForce(), s, with_nlist=True)
    assert res.per_atom_work.sum() == res.terms
    assert res.per_atom_work[29] == 0  # highest index owns nothing
    assert res.flops > 0 and res.bytes_irregular > 0


def test_lj_requires_neighbor_list():
    s = make_system("Al", [[1, 1, 1], [2, 2, 2]])
    with pytest.raises(RuntimeError):
        eval_force(LennardJonesForce(), s, with_nlist=False)


# ------------------------------------------------------------ Coulomb ----


def test_coulomb_two_charges_closed_form():
    r = 5.0
    s = make_system("Na", [[10, 10, 10], [10 + r, 10, 10]], charges=[1.0, -1.0])
    res, f = eval_force(CoulombForce(), s)
    expected_e = -COULOMB_K / r
    assert res.energy == pytest.approx(expected_e)
    expected_f = COULOMB_K / r**2
    # opposite charges attract: atom 0 pulled toward +x (toward atom 1)
    assert f[0, 0] == pytest.approx(expected_f)
    assert f[1, 0] == pytest.approx(-expected_f)


def test_coulomb_like_charges_repel():
    s = make_system("Na", [[10, 10, 10], [15, 10, 10]], charges=[1.0, 1.0])
    res, f = eval_force(CoulombForce(), s)
    assert res.energy > 0
    assert f[0, 0] < 0 and f[1, 0] > 0


def test_coulomb_matches_numerical_gradient():
    rng = np.random.default_rng(3)
    pos = np.array([20.0, 20.0, 20.0]) + rng.uniform(0, 10, (8, 3))
    charges = rng.choice([-1.0, 1.0], size=8)
    s = make_system("Na", pos, charges=charges)
    force = CoulombForce()
    _, analytic = eval_force(force, s)
    numeric = numerical_gradient(force, s)
    assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_coulomb_ignores_neutral_atoms():
    s = AtomSystem(BOX)
    s.add_atoms("Na", [[10, 10, 10]], charges=1.0)
    s.add_atoms("Al", [[12, 10, 10]])  # neutral
    res, f = eval_force(CoulombForce(), s)
    assert res.terms == 0
    assert np.all(f == 0.0)


def test_coulomb_all_pairs_regardless_of_distance():
    """Unlike LJ, Coulomb pairs span the whole box."""
    s = make_system(
        "Na", [[1, 1, 1], [58, 58, 58]], charges=[1.0, 1.0]
    )
    res, _ = eval_force(CoulombForce(), s)
    assert res.terms == 1
    assert res.energy > 0


def test_coulomb_work_scales_quadratically():
    rng = np.random.default_rng(4)

    def terms(n):
        pos = rng.uniform(5, 55, (n, 3))
        s = make_system("Na", pos, charges=np.ones(n))
        res, _ = eval_force(CoulombForce(), s)
        return res.terms

    assert terms(40) == 40 * 39 // 2
    assert terms(80) == 80 * 79 // 2


def test_coulomb_min_distance_clamp():
    s = make_system("Na", [[10, 10, 10], [10.001, 10, 10]], charges=[1.0, 1.0])
    res, f = eval_force(CoulombForce(min_distance=0.5), s)
    assert np.isfinite(res.energy)
    assert np.all(np.isfinite(f))


# -------------------------------------------------------------- bonds ----


def test_radial_bond_equilibrium_and_direction():
    bond = RadialBondForce([[0, 1]], k=[2.0], r0=[3.0])
    eq = make_system("C", [[10, 10, 10], [13, 10, 10]])
    res, f = eval_force(bond, eq)
    assert res.energy == pytest.approx(0.0)
    assert np.allclose(f, 0.0, atol=1e-12)
    stretched = make_system("C", [[10, 10, 10], [14, 10, 10]])
    res, f = eval_force(bond, stretched)
    assert res.energy == pytest.approx(0.5 * 2.0 * 1.0)
    assert f[0, 0] > 0 and f[1, 0] < 0  # pulled together


def test_radial_bond_numerical_gradient():
    rng = np.random.default_rng(5)
    pos = np.array([20.0, 20.0, 20.0]) + rng.uniform(0, 5, (4, 3))
    s = make_system("C", pos)
    bond = RadialBondForce([[0, 1], [1, 2], [2, 3]], k=1.5, r0=2.0)
    _, analytic = eval_force(bond, s)
    numeric = numerical_gradient(bond, s)
    assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


def test_angular_bond_equilibrium():
    angle = AngularBondForce([[0, 1, 2]], k=[1.0], theta0=[np.pi / 2])
    s = make_system("C", [[11, 10, 10], [10, 10, 10], [10, 11, 10]])
    res, f = eval_force(angle, s)
    assert res.energy == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(f, 0.0, atol=1e-10)


def test_angular_bond_numerical_gradient():
    rng = np.random.default_rng(6)
    pos = np.array([20.0, 20.0, 20.0]) + rng.uniform(0, 4, (3, 3))
    s = make_system("C", pos)
    angle = AngularBondForce([[0, 1, 2]], k=2.0, theta0=np.deg2rad(109.5))
    _, analytic = eval_force(angle, s)
    numeric = numerical_gradient(angle, s)
    assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_angular_force_net_zero():
    rng = np.random.default_rng(7)
    pos = np.array([20.0, 20.0, 20.0]) + rng.uniform(0, 4, (5, 3))
    s = make_system("C", pos)
    angle = AngularBondForce(
        [[0, 1, 2], [1, 2, 3], [2, 3, 4]], k=1.0, theta0=2.0
    )
    _, f = eval_force(angle, s)
    assert np.allclose(f.sum(axis=0), 0.0, atol=1e-10)


def test_torsion_numerical_gradient():
    rng = np.random.default_rng(8)
    pos = np.array([20.0, 20.0, 20.0]) + rng.uniform(0, 4, (4, 3))
    s = make_system("C", pos)
    torsion = TorsionalBondForce([[0, 1, 2, 3]], v=1.3, periodicity=3, phi0=0.4)
    _, analytic = eval_force(torsion, s)
    numeric = numerical_gradient(torsion, s)
    assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-6)


def test_torsion_net_force_and_torque_zero():
    rng = np.random.default_rng(9)
    pos = np.array([20.0, 20.0, 20.0]) + rng.uniform(0, 4, (4, 3))
    s = make_system("C", pos)
    torsion = TorsionalBondForce([[0, 1, 2, 3]], v=2.0, periodicity=2)
    _, f = eval_force(torsion, s)
    assert np.allclose(f.sum(axis=0), 0.0, atol=1e-10)
    torque = np.cross(s.positions, f).sum(axis=0)
    assert np.allclose(torque, 0.0, atol=1e-8)


def test_torsion_collinear_atoms_no_nan():
    s = make_system(
        "C", [[10, 10, 10], [11, 10, 10], [12, 10, 10], [13, 10, 10]]
    )
    torsion = TorsionalBondForce([[0, 1, 2, 3]], v=1.0)
    res, f = eval_force(torsion, s)
    assert np.all(np.isfinite(f))
    assert np.isfinite(res.energy)


def test_bond_validation():
    with pytest.raises(ValueError):
        RadialBondForce([[0, 1, 2]], k=1.0, r0=1.0)  # wrong width
    with pytest.raises(ValueError):
        RadialBondForce([[0, 1]], k=-1.0, r0=1.0)  # negative k
    with pytest.raises(ValueError):
        AngularBondForce([[0, 1]], k=1.0, theta0=1.0)
    with pytest.raises(ValueError):
        TorsionalBondForce([[0, 1, 2]], v=1.0)


def test_empty_bond_lists():
    s = make_system("C", [[10, 10, 10]])
    for force in (
        RadialBondForce(np.zeros((0, 2), dtype=int), k=[], r0=[]),
        AngularBondForce(np.zeros((0, 3), dtype=int), k=[], theta0=[]),
        TorsionalBondForce(np.zeros((0, 4), dtype=int), v=[]),
    ):
        res, f = eval_force(force, s)
        assert res.energy == 0.0
        assert res.terms == 0
