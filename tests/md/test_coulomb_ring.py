"""The ring-block Coulomb kernel against the per-pair gather kernel it
replaced, kept here unchanged as the reference oracle.

The oracle gathers both ends of every :func:`half_shell_pairs` pair
through the atom index and scatters with :func:`scatter_forces`.  The
block kernel must produce the same bits — forces, energies, work
counts and per-atom work — for every charged layout, fixed-atom mask,
owner range and run count, because the pinned trace digests and the
run cache depend on it.
"""

import pickle

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.md import AtomSystem, CoulombForce
from repro.md.boundary import PeriodicBox, ReflectiveBox
from repro.md.forces.base import ForceResult, scatter_forces, split_runs
from repro.md.forces.coulomb import (
    FLOPS_PER_PAIR,
    REGULAR_BYTES_PER_ATOM,
    half_shell_pairs,
)
from repro.md.units import COULOMB_K

BOX = np.array([40.0, 40.0, 40.0])


def _pair_bundle(force, system, boundary, gi, gj, forces_out):
    dr = boundary.displacement(system.positions[gi] - system.positions[gj])
    r2 = np.einsum("ij,ij->i", dr, dr)
    np.maximum(r2, force.min_distance**2, out=r2)
    r = np.sqrt(r2)
    qq = COULOMB_K * system.charges[gi] * system.charges[gj]
    coef = qq / (r2 * r)  # F/r
    fvec = coef[:, None] * dr
    scatter_forces(forces_out, (gi, gj), (fvec, -fvec))
    return gi, qq / r


def gather_oracle(force, system, boundary, forces_out, n_runs):
    """The gather kernel's ``compute_runs``, unchanged."""
    n = system.n_atoms // n_runs
    charged = system.charged
    m = len(charged) // n_runs
    ii, jj = half_shell_pairs(m)
    gi, gj = charged[ii], charged[jj]
    keep = system.movable[gi] | system.movable[gj]
    if force.owner_range is not None:
        lo, hi = force.owner_range
        keep &= (gi >= lo) & (gi < hi)
    if not keep.any():
        return [ForceResult.empty(n) for _ in range(n_runs)]
    offsets = np.arange(n_runs, dtype=np.int64)[:, None] * n
    gi = (gi[keep] + offsets).ravel()
    gj = (gj[keep] + offsets).ravel()
    owner, e_terms = _pair_bundle(force, system, boundary, gi, gj, forces_out)
    counts, energies, per_atom = split_runs(owner, e_terms, n_runs, n)
    runs = zip(counts.tolist(), energies.tolist())
    return [
        ForceResult(
            energy=energy,
            terms=terms,
            per_atom_work=per_atom[r],
            flops=FLOPS_PER_PAIR * terms,
            bytes_irregular=0.0,
            bytes_regular=REGULAR_BYTES_PER_ATOM * m,
        )
        for r, (terms, energy) in enumerate(runs)
    ]


def run_major_system(rng, n, charges, movable, n_runs, spread):
    """``n_runs`` copies of one charge/movable layout with independent
    positions, laid out run-major."""
    s = AtomSystem(BOX)
    pos = 14.0 + rng.uniform(0.0, spread, (n_runs * n, 3))
    s.add_atoms("Na", pos, charges=np.tile(charges, n_runs))
    s.movable = np.tile(movable, n_runs)
    return s


def assert_same(new, old, out_new, out_old):
    assert np.array_equal(out_new, out_old)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.energy == b.energy
        assert a.terms == b.terms
        assert a.flops == b.flops
        assert a.bytes_irregular == b.bytes_irregular
        assert a.bytes_regular == b.bytes_regular
        assert np.array_equal(a.per_atom_work, b.per_atom_work)
    # types too: run-cache artifacts pickle these results
    assert pickle.dumps(new) == pickle.dumps(old)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    m=st.integers(0, 80),
    neutral=st.integers(0, 20),
    fixed_share=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    n_runs=st.sampled_from([1, 3]),
    restricted=st.booleans(),
    periodic=st.booleans(),
    spread=st.sampled_from([2.0, 12.0]),
)
@example(0, 0, 3, 0.0, 1, False, False, 12.0)  # no charges
@example(0, 1, 3, 0.0, 3, False, False, 12.0)  # one charge, no pairs
@example(0, 2, 0, 0.0, 3, False, False, 12.0)  # the half ring alone
@example(0, 7, 5, 0.3, 3, True, False, 2.0)  # odd ring, fixed atoms
@example(0, 80, 9, 0.3, 3, True, True, 2.0)  # even ring, everything
@example(0, 19, 4, 0.0, 1, False, False, 12.0)  # 9 blocks: more than 8
@example(0, 20, 5, 0.3, 3, True, True, 2.0)  # 9 blocks and the half ring
@example(0, 12, 4, 0.3, 8, True, False, 12.0)  # eight runs
@example(0, 9, 2, 0.0, 1, False, False, 0.0)  # coincident ±ions: -0.0 terms
@example(1, 30, 6, 0.0, 3, True, False, 12.0)  # 26 of 30 charges own no pair
def test_property_ring_blocks_match_gather_oracle(
    seed, m, neutral, fixed_share, n_runs, restricted, periodic, spread
):
    rng = np.random.default_rng(seed)
    n = m + neutral
    # neutral atoms land at random ranks, so ``charged`` is usually not
    # one contiguous index range
    charges = np.zeros(n)
    charges[rng.permutation(n)[:m]] = rng.choice([-1.0, 1.0, 2.0], size=m)
    movable = rng.random(n) >= fixed_share
    s = run_major_system(rng, n, charges, movable, n_runs, spread)
    force = CoulombForce()
    if restricted:
        lo, hi = np.sort(rng.integers(0, n + 1, 2)).tolist()
        force = force.restrict(lo, hi)
    boundary = PeriodicBox(BOX / 3) if periodic else ReflectiveBox(BOX)
    start = rng.normal(size=s.positions.shape)  # kernels are additive
    out_new, out_old = start.copy(), start.copy()
    new = force.compute_runs(s, boundary, None, out_new, n_runs).results()
    old = gather_oracle(force, s, boundary, out_old, n_runs)
    assert_same(new, old, out_new, out_old)


def test_one_force_object_across_charged_layouts():
    """Cached ring plans never leak between systems that share a force
    object: same charged count, different charged atoms and fixed
    masks, revisited after the cache has cycled."""
    rng = np.random.default_rng(7)
    force = CoulombForce()
    boundary = ReflectiveBox(BOX)
    systems = []
    for _ in range(6):
        charges = np.zeros(30)
        charges[rng.permutation(30)[:21]] = 1.0
        movable = rng.random(30) > 0.4
        systems.append(run_major_system(rng, 30, charges, movable, 1, 10.0))
    # one charged layout and fixed mask, different charge values: the
    # cached charge products must not carry over
    layout = rng.permutation(30)[:21]
    movable = rng.random(30) > 0.4
    for values in ([1.0], [-1.0, 1.0], [2.0, -1.0, 1.0]):
        charges = np.zeros(30)
        charges[layout] = np.resize(values, 21)
        systems.append(run_major_system(rng, 30, charges, movable, 1, 10.0))
    for s in systems + systems[::-1]:
        out_new, out_old = np.zeros((30, 3)), np.zeros((30, 3))
        new = force.compute_runs(s, boundary, None, out_new, 1).results()
        old = gather_oracle(force, s, boundary, out_old, 1)
        assert_same(new, old, out_new, out_old)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n_runs=st.sampled_from([1, 3]),
    restricted=st.booleans(),
)
@example(0, 1, False)
def test_lattice_zero_components_match_gather_oracle_bytes(
    seed, n_runs, restricted
):
    """Ions on an integer lattice share coordinates, so many pair
    displacements have exactly zero components and opposite charges
    give -0.0 force terms amid nonzero ones; the forces must match the
    oracle byte for byte, signed zeros included."""
    rng = np.random.default_rng(seed)
    n = 24
    charges = rng.choice([-1.0, 1.0], size=n)
    s = AtomSystem(BOX)
    pos = 14.0 + rng.integers(0, 3, (n_runs * n, 3)).astype(float)
    s.add_atoms("Na", pos, charges=np.tile(charges, n_runs))
    force = CoulombForce()
    if restricted:
        lo, hi = np.sort(rng.integers(0, n + 1, 2)).tolist()
        force = force.restrict(lo, hi)
    boundary = ReflectiveBox(BOX)
    out_new, out_old = np.zeros((n_runs * n, 3)), np.zeros((n_runs * n, 3))
    new = force.compute_runs(s, boundary, None, out_new, n_runs).results()
    old = gather_oracle(force, s, boundary, out_old, n_runs)
    assert out_new.tobytes() == out_old.tobytes()
    assert_same(new, old, out_new, out_old)
