"""Integration tests: boundaries, integrator, thermostat, full engine."""

import numpy as np
import pytest

from repro.md import (
    AtomSystem,
    BerendsenThermostat,
    CoulombForce,
    LennardJonesForce,
    MDEngine,
    RadialBondForce,
)
from repro.md.boundary import PeriodicBox, ReflectiveBox
from repro.md.units import ACCEL_UNIT


def test_reflective_box_bounces():
    box = np.array([10.0, 10.0, 10.0])
    b = ReflectiveBox(box)
    pos = np.array([[-1.0, 5.0, 11.0]])
    vel = np.array([[-2.0, 0.0, 3.0]])
    b.apply(pos, vel)
    assert pos[0, 0] == pytest.approx(1.0)
    assert vel[0, 0] == pytest.approx(2.0)  # flipped inward
    assert pos[0, 2] == pytest.approx(9.0)
    assert vel[0, 2] == pytest.approx(-3.0)
    assert pos[0, 1] == 5.0 and vel[0, 1] == 0.0


def test_periodic_box_wraps_and_min_image():
    box = np.array([10.0, 10.0, 10.0])
    b = PeriodicBox(box)
    pos = np.array([[11.0, -1.0, 5.0]])
    vel = np.zeros((1, 3))
    b.apply(pos, vel)
    assert np.allclose(pos, [[1.0, 9.0, 5.0]])
    dr = b.displacement(np.array([[9.0, -9.0, 3.0]]))
    assert np.allclose(dr, [[-1.0, 1.0, 3.0]])


def test_integrator_free_particle():
    s = AtomSystem([100.0, 100.0, 100.0])
    s.add_atoms("Al", [[10, 10, 10]], velocities=[[0.01, 0.0, 0.0]])
    engine = MDEngine(s, forces=[], dt_fs=1.0)
    engine.run(100)
    # constant velocity drift: 100 fs * 0.01 Å/fs = 1 Å
    assert s.positions[0, 0] == pytest.approx(11.0, rel=1e-9)


def test_harmonic_bond_energy_conservation():
    """Velocity-Verlet equivalence: total energy stays bounded over a
    long run of a stiff two-atom oscillator."""
    s = AtomSystem([50.0, 50.0, 50.0])
    s.add_atoms("C", [[24.0, 25, 25], [27.0, 25, 25]])  # stretched by 1Å
    bond = RadialBondForce([[0, 1]], k=[1.0], r0=[2.0])
    engine = MDEngine(s, forces=[bond], dt_fs=0.5)
    reports = engine.run(2000)
    energies = [r.total_energy for r in reports]
    drift = max(energies) - min(energies)
    assert drift < 0.01 * abs(np.mean(np.abs(energies)) + 0.5)
    # and the bond actually oscillates
    assert reports[0].potential_energy == pytest.approx(0.5, rel=0.05)


def test_harmonic_oscillator_period():
    """Angular frequency ω = sqrt(k/μ·ACCEL_UNIT) for reduced mass μ."""
    s = AtomSystem([50.0, 50.0, 50.0])
    s.add_atoms("C", [[24.5, 25, 25], [27.5, 25, 25]])
    k = 2.0
    bond = RadialBondForce([[0, 1]], k=[k], r0=[2.0])
    engine = MDEngine(s, forces=[bond], dt_fs=0.2)
    mu = 12.011 / 2
    omega = np.sqrt(k / mu * ACCEL_UNIT)
    period = 2 * np.pi / omega  # fs
    steps = int(period / 0.2)
    engine.run(steps)
    # after one full period the stretch returns to ~1 Å
    r = np.linalg.norm(s.positions[1] - s.positions[0])
    assert r == pytest.approx(3.0, abs=0.05)


def test_lj_cluster_energy_conservation():
    rng = np.random.default_rng(0)
    s = AtomSystem([40.0, 40.0, 40.0])
    # loose FCC-ish cluster of Al atoms near equilibrium spacing
    grid = np.stack(
        np.meshgrid(*([np.arange(3)] * 3), indexing="ij"), axis=-1
    ).reshape(-1, 3)
    pos = 15.0 + grid * 2.9 + rng.normal(0, 0.02, (27, 3))
    s.add_atoms("Al", pos)
    s.set_thermal_velocities(50.0, rng)
    engine = MDEngine(s, forces=[LennardJonesForce()], dt_fs=1.0)
    reports = engine.run(400)
    energies = np.array([r.total_energy for r in reports])
    drift = abs(energies[-50:].mean() - energies[:50].mean())
    scale = max(abs(energies.mean()), 0.1)
    assert drift / scale < 0.02


def test_fixed_atoms_never_move():
    s = AtomSystem([30.0, 30.0, 30.0])
    s.add_atoms("Au", [[10, 10, 10], [12.6, 10, 10]], movable=False)
    s.add_atoms("Au", [[11.3, 12, 10]], velocities=[[0, -0.005, 0]])
    engine = MDEngine(s, forces=[LennardJonesForce()], dt_fs=1.0)
    before = s.positions[:2].copy()
    engine.run(50)
    assert np.array_equal(s.positions[:2], before)
    assert np.all(s.velocities[:2] == 0.0)


def test_neighbor_rebuilds_triggered_by_motion():
    s = AtomSystem([40.0, 40.0, 40.0])
    rng = np.random.default_rng(1)
    s.add_atoms("Al", rng.uniform(10, 30, (30, 3)))
    s.set_thermal_velocities(2000.0, rng)  # hot: lots of motion
    engine = MDEngine(s, forces=[LennardJonesForce()], dt_fs=2.0, skin=0.5)
    reports = engine.run(100)
    rebuilds = sum(r.rebuilt for r in reports)
    assert rebuilds > 2
    assert engine.neighbors.rebuild_count == rebuilds + 1  # +1 for prime


def test_step_report_contents():
    s = AtomSystem([30.0, 30.0, 30.0])
    s.add_atoms("Na", [[10, 10, 10], [14, 10, 10]], charges=[1.0, -1.0])
    engine = MDEngine(
        s, forces=[LennardJonesForce(), CoulombForce()], dt_fs=1.0
    )
    report = engine.step()
    assert report.step == 1
    assert set(report.force_results) == {"lj", "coulomb"}
    assert set(report.phase_work) == {
        "predict",
        "rebuild",
        "forces",
        "correct",
    }
    assert report.phase_work["predict"].per_atom.shape == (2,)
    assert report.force_results["coulomb"].terms == 1
    assert np.isfinite(report.total_energy)


def test_thermostat_drives_temperature():
    rng = np.random.default_rng(2)
    s = AtomSystem([60.0, 60.0, 60.0])
    s.add_atoms("Al", rng.uniform(20, 40, (60, 3)) * 1.0)
    s.set_thermal_velocities(100.0, rng)
    thermo = BerendsenThermostat(target_k=600.0, tau_fs=20.0)
    engine = MDEngine(
        s, forces=[], dt_fs=1.0, thermostat=thermo
    )
    reports = engine.run(300)
    assert s.temperature() == pytest.approx(600.0, rel=0.1)
    # the thermostatted velocities are the system's live state
    assert engine.n_runs == 1 and engine.system is s
    assert reports[-1].kinetic_energy == s.kinetic_energy()


def test_thermostat_validation():
    with pytest.raises(ValueError):
        BerendsenThermostat(-1.0)
    with pytest.raises(ValueError):
        BerendsenThermostat(300.0, tau_fs=0.0)


def test_engine_without_neighbor_forces_skips_list():
    s = AtomSystem([30.0, 30.0, 30.0])
    s.add_atoms("Na", [[10, 10, 10], [15, 10, 10]], charges=[1.0, -1.0])
    engine = MDEngine(s, forces=[CoulombForce()], dt_fs=1.0)
    report = engine.step()
    assert not report.rebuilt
    assert engine.neighbors.rebuild_count == 0


def test_potential_energy_query_does_not_advance():
    s = AtomSystem([30.0, 30.0, 30.0])
    s.add_atoms("Al", [[10, 10, 10], [13, 10, 10]])
    engine = MDEngine(s, forces=[LennardJonesForce()], dt_fs=1.0)
    before = s.positions.copy()
    pe = engine.potential_energy()
    assert np.array_equal(s.positions, before)
    assert np.isfinite(pe)
    assert engine.step_count == 0


def test_invalid_timestep():
    s = AtomSystem([10.0, 10.0, 10.0])
    with pytest.raises(ValueError):
        MDEngine(s, forces=[], dt_fs=0.0)
