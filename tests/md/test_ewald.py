"""Tests for the Ewald Coulomb extension (the paper's 'future work')."""

import numpy as np
import pytest

from repro.md import AtomSystem, EwaldCoulombForce, MDEngine
from repro.md.boundary import PeriodicBox, ReflectiveBox
from repro.md.units import COULOMB_K

#: Madelung constant of the rock-salt structure
NACL_MADELUNG = 1.747565


def nacl_lattice(cells: int, spacing: float):
    """Rock-salt lattice: alternating +1/-1 on a simple cubic grid."""
    n = 2 * cells
    coords = np.stack(
        np.meshgrid(*([np.arange(n)] * 3), indexing="ij"), axis=-1
    ).reshape(-1, 3)
    positions = coords * spacing
    charges = np.where(coords.sum(axis=1) % 2 == 0, 1.0, -1.0)
    box = np.array([n * spacing] * 3)
    return positions, charges, box


def test_ewald_requires_periodic_box():
    s = AtomSystem([10.0, 10.0, 10.0])
    s.add_atoms("Na", [[1, 1, 1], [5, 5, 5]], charges=[1.0, -1.0])
    f = EwaldCoulombForce()
    with pytest.raises(ValueError):
        f.compute(s, ReflectiveBox(s.box), None, np.zeros((2, 3)))


def test_ewald_madelung_constant():
    """Gold-standard check: the NaCl lattice energy per ion must equal
    -M·k/a with M = 1.7476."""
    spacing = 2.82
    positions, charges, box = nacl_lattice(2, spacing)  # 64 ions
    s = AtomSystem(box)
    s.add_atoms("Na", positions, charges=charges)
    force = EwaldCoulombForce(real_cutoff=5.6, kmax=7)
    out = np.zeros_like(s.positions)
    res = force.compute(s, PeriodicBox(box), None, out)
    e_per_ion = res.energy / s.n_atoms
    expected = -NACL_MADELUNG * COULOMB_K / spacing / 2  # per ion
    assert e_per_ion == pytest.approx(expected, rel=2e-3)


def test_ewald_lattice_forces_vanish():
    """Perfect-lattice symmetry: every ion's force is ~zero."""
    positions, charges, box = nacl_lattice(2, 2.82)
    s = AtomSystem(box)
    s.add_atoms("Na", positions, charges=charges)
    force = EwaldCoulombForce(real_cutoff=5.6, kmax=7)
    out = np.zeros_like(s.positions)
    force.compute(s, PeriodicBox(box), None, out)
    assert np.abs(out).max() < 1e-6


def test_ewald_matches_numerical_gradient():
    rng = np.random.default_rng(0)
    box = np.array([12.0, 12.0, 12.0])
    s = AtomSystem(box)
    pos = rng.uniform(0, 12, (8, 3))
    charges = np.array([1.0, -1.0] * 4)
    s.add_atoms("Na", pos, charges=charges)
    force = EwaldCoulombForce(real_cutoff=5.0, kmax=6)
    boundary = PeriodicBox(box)
    out = np.zeros_like(s.positions)
    force.compute(s, boundary, None, out)

    h = 1e-5
    numeric = np.zeros_like(out)
    for a in range(8):
        for d in range(3):
            orig = s.positions[a, d]
            s.positions[a, d] = orig + h
            ep = force.compute(
                s, boundary, None, np.zeros_like(out)
            ).energy
            s.positions[a, d] = orig - h
            em = force.compute(
                s, boundary, None, np.zeros_like(out)
            ).energy
            s.positions[a, d] = orig
            numeric[a, d] = -(ep - em) / (2 * h)
    assert np.allclose(out, numeric, rtol=1e-3, atol=1e-6)


def test_ewald_net_force_zero():
    rng = np.random.default_rng(1)
    box = np.array([15.0, 15.0, 15.0])
    s = AtomSystem(box)
    s.add_atoms(
        "Na",
        rng.uniform(0, 15, (10, 3)),
        charges=np.array([1.0, -1.0] * 5),
    )
    force = EwaldCoulombForce(real_cutoff=6.0, kmax=6)
    out = np.zeros_like(s.positions)
    force.compute(s, PeriodicBox(box), None, out)
    assert np.allclose(out.sum(axis=0), 0.0, atol=1e-8)


def test_ewald_insensitive_to_alpha():
    """The Ewald split is exact: energy must not depend on alpha (within
    convergence of both sums)."""
    positions, charges, box = nacl_lattice(2, 2.82)
    s = AtomSystem(box)
    s.add_atoms("Na", positions, charges=charges)
    boundary = PeriodicBox(box)
    energies = []
    for alpha in (0.45, 0.55):
        f = EwaldCoulombForce(real_cutoff=5.6, kmax=8, alpha=alpha)
        res = f.compute(s, boundary, None, np.zeros_like(s.positions))
        energies.append(res.energy)
    assert energies[0] == pytest.approx(energies[1], rel=1e-3)


def test_ewald_validation():
    with pytest.raises(ValueError):
        EwaldCoulombForce(real_cutoff=0.0)
    with pytest.raises(ValueError):
        EwaldCoulombForce(kmax=0)


def test_ewald_neutral_system_no_charges():
    s = AtomSystem([10.0, 10.0, 10.0])
    s.add_atoms("Al", [[1, 1, 1], [5, 5, 5]])
    f = EwaldCoulombForce()
    res = f.compute(
        s, PeriodicBox(s.box), None, np.zeros_like(s.positions)
    )
    assert res.energy == 0.0
    assert res.terms == 0


def test_ewald_restrict_partitions_sum_to_full():
    """Restricted Ewald copies over an atom partition reproduce the
    full energy and forces (parallel decomposition contract)."""
    rng = np.random.default_rng(3)
    box = np.array([14.0, 14.0, 14.0])
    s = AtomSystem(box)
    s.add_atoms(
        "Na",
        rng.uniform(0, 14, (12, 3)),
        charges=np.array([1.0, -1.0] * 6),
    )
    boundary = PeriodicBox(box)
    force = EwaldCoulombForce(real_cutoff=6.0, kmax=5)
    full_out = np.zeros_like(s.positions)
    full = force.compute(s, boundary, None, full_out)

    from repro.core.partition import block_partition

    acc = np.zeros_like(s.positions)
    energy = 0.0
    for lo, hi in block_partition(12, 3):
        res = force.restrict(lo, hi).compute(s, boundary, None, acc)
        energy += res.energy
    assert energy == pytest.approx(full.energy, rel=1e-9)
    assert np.allclose(acc, full_out, atol=1e-10)


def test_ewald_engine_steps_in_periodic_box():
    """A one-run engine integrates with Ewald forces in a periodic box:
    atoms wrap into the box and the energy stays bounded."""
    positions, charges, box = nacl_lattice(1, 2.82)
    s = AtomSystem(box)
    s.add_atoms("Na", positions, charges=charges)
    s.set_thermal_velocities(300.0, np.random.default_rng(0))
    engine = MDEngine(
        s, [EwaldCoulombForce(real_cutoff=5.6, kmax=4)],
        boundary=PeriodicBox(box), dt_fs=1.0,
    )
    reports = engine.run(10)
    assert engine.n_runs == 1 and engine.step_count == 10
    assert {name for name in reports[-1].force_results} == {"ewald"}
    assert np.all((s.positions >= 0.0) & (s.positions < box))
    energies = [r.total_energy for r in reports]
    assert max(energies) - min(energies) < 1e-2 * abs(energies[0])
    assert reports[-1].kinetic_energy == s.kinetic_energy()
