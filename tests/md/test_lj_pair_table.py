"""The LJ kernel's per-generation pair table against the per-step
filter chain it replaced, kept here unchanged as the reference oracle.

The oracle runs the old chain every step: gather both ends of every
list pair as ``(P, 3)`` rows, keep the pairs inside the list cutoff
(the old ``NeighborList.pairs_within``), then drop pairs outside the
owner range, pairs of two fixed atoms and excluded pairs, mix σ and ε
and keep the pairs inside ``cutoff_factor·σ``.  The kernel does the
step-invariant part once per list generation (rebuild or splice) and
one gather, one r² and one compress per step.  Both must give the same
``(owner, e_terms)`` and the same forces, bit for bit, at every step:
a table kept past a rebuild or a splice fails here.
"""

import numpy as np
import pytest

from repro.md import MDEngine
from repro.md.boundary import ReflectiveBox
from repro.md.forces.base import scatter_forces
from repro.md.forces.lj import LennardJonesForce
from repro.md.neighbors import NeighborList
from repro.workloads import BUILDERS


def pairs_within(neighbors, positions, boundary):
    """The old ``NeighborList.pairs_within``, unchanged."""
    dr = positions[neighbors.pairs_i]
    dr -= positions[neighbors.pairs_j]
    dr = boundary.displacement(dr)
    r2 = np.einsum("ij,ij->i", dr, dr)
    keep = r2 <= neighbors.cutoff * neighbors.cutoff
    if keep.all():
        return neighbors.pairs_i, neighbors.pairs_j, dr
    return neighbors.pairs_i[keep], neighbors.pairs_j[keep], dr[keep]


def oracle_bundle(force, system, boundary, neighbors, forces_out):
    """The old ``LennardJonesForce._bundle``, unchanged."""
    i, j, dr = pairs_within(neighbors, system.positions, boundary)
    if force.owner_range is not None and len(i):
        lo, hi = force.owner_range
        keep = (i >= lo) & (i < hi)
        i, j, dr = i[keep], j[keep], dr[keep]
    if force.skip_fixed_pairs and len(i) and not system.movable.all():
        keep = system.movable[i] | system.movable[j]
        i, j, dr = i[keep], j[keep], dr[keep]
    if force._exclusion_keys is not None and len(i):
        keys = i << 32 | j
        keep = ~np.isin(keys, force._exclusion_keys, assume_unique=False)
        i, j, dr = i[keep], j[keep], dr[keep]
    if len(i) == 0:
        return None

    sig = 0.5 * (system.sigma[i] + system.sigma[j])
    eps = np.sqrt(system.epsilon[i] * system.epsilon[j])
    r2 = np.einsum("ij,ij->i", dr, dr)
    rc2 = (force.cutoff_factor * sig) ** 2
    inside = r2 <= rc2
    if not inside.all():
        i, j, dr = i[inside], j[inside], dr[inside]
        sig, eps, r2 = sig[inside], eps[inside], r2[inside]
    if len(i) == 0:
        return None

    inv2 = (sig * sig) / r2
    inv6 = inv2 * inv2 * inv2
    inv12 = inv6 * inv6
    coef = 24.0 * eps * (2.0 * inv12 - inv6) / r2
    fvec = coef[:, None] * dr
    scatter_forces(forces_out, (i, j), (fvec, -fvec))
    inv2c = 1.0 / (force.cutoff_factor * force.cutoff_factor)
    inv6c = inv2c**3
    e_shift = 4.0 * eps * (inv6c * inv6c - inv6c)
    e_terms = 4.0 * eps * (inv12 - inv6) - e_shift
    return i, e_terms


def assert_matches_oracle(force, system, boundary, neighbors):
    """One kernel call and one oracle call from the same random
    (additive) start: same terms, same forces, bit for bit."""
    start = np.random.default_rng(len(neighbors.pairs_i)).normal(
        size=system.positions.shape
    )
    out_new, out_old = start.copy(), start.copy()
    new = force._bundle(system, boundary, neighbors, out_new)
    old = oracle_bundle(force, system, boundary, neighbors, out_old)
    assert out_new.tobytes() == out_old.tobytes()
    if old is None:
        assert new is None
        return
    (owner, e_terms), (owner_old, e_old) = new, old
    assert owner.dtype == owner_old.dtype
    assert owner.tobytes() == owner_old.tobytes()
    assert e_terms.tobytes() == e_old.tobytes()


def _lj(engine):
    """The engine's LJ kernel and the state it evaluates."""
    (lj,) = [f for f in engine._kernels if isinstance(f, LennardJonesForce)]
    return lj, engine._flat, engine._box, engine._pairs


def _check_steps(engine, n_steps, restricted=()):
    """Step ``engine`` and hold its LJ kernel, and owner-restricted
    copies over ``restricted`` ranges, to the oracle after every step;
    returns each step's per-run rebuild flags.  The table is built
    once per list generation: it stays the same object while no run
    rebuilds and is replaced when one does."""
    engine.prime()
    lj, _, _, _ = _lj(engine)
    copies = [lj.restrict(lo, hi) for lo, hi in restricted]
    flags = []
    for _ in range(n_steps):
        table = lj._table
        reports = engine.step_all()
        rebuilt = [r.rebuilt for r in reports]
        flags.append(rebuilt)
        assert (lj._table is table) == (not any(rebuilt))
        _, system, boundary, pairs = _lj(engine)
        for force in [lj] + copies:
            assert_matches_oracle(force, system, boundary, pairs)
            assert force._table.generation == pairs.generation
    return flags


@pytest.mark.parametrize(
    "workload, steps", [("nanocar", 10), ("Al-1000", 9), ("salt", 3)]
)
def test_one_run_matches_oracle_every_step(workload, steps):
    """nanocar (bond exclusions and a fixed platform), Al-1000 (one
    element, several rebuilds) and salt (mixed σ/ε), with owner-
    restricted copies over an uneven partition evaluated on the same
    list."""
    wl = BUILDERS[workload](seed=0)
    n = wl.system.n_atoms
    cuts = [0, n // 7, n // 2, n - 3, n]
    flags = _check_steps(
        wl.make_engine(), steps, restricted=list(zip(cuts, cuts[1:]))
    )
    if workload != "salt":
        assert any(f[0] for f in flags), "no rebuild was exercised"


def test_fixed_pairs_kept_when_rule_is_off():
    """``skip_fixed_pairs=False`` keeps nanocar's platform–platform
    pairs in the table."""
    wl = BUILDERS["nanocar"](seed=0)
    engine = wl.make_engine()
    engine.prime()
    lj, system, boundary, pairs = _lj(engine)
    full = LennardJonesForce(
        lj.cutoff_factor, exclusions=lj.exclusions, skip_fixed_pairs=False
    )
    for _ in range(3):
        engine.step()
        assert_matches_oracle(full, system, boundary, pairs)
    assert len(full._table.i) > len(lj._table.i)


def test_rebuild_over_moved_atoms_replaces_the_table():
    """A list rebuilt after the atoms were shuffled holds other pairs;
    the next call must evaluate those, not the earlier build's."""
    wl = BUILDERS["salt"](seed=0)
    system = wl.system.copy()
    boundary = ReflectiveBox(system.box)
    nl = NeighborList(2.5 * float(system.sigma.max()), skin=0.8)
    force = LennardJonesForce()
    rng = np.random.default_rng(3)
    for _ in range(3):
        nl.build(system.positions, boundary)
        assert_matches_oracle(force, system, boundary, nl)
        system.positions[:] = system.positions[rng.permutation(system.n_atoms)]


def test_three_run_batch_where_only_some_runs_rebuild():
    """A 3-run lockstep batch whose runs move at different speeds, so
    some steps rebuild one or two runs' lists and re-splice the batch
    list while the other runs keep theirs."""
    engines = [BUILDERS["Al-1000"](seed=s).make_engine() for s in range(3)]
    for engine, scale in zip(engines, (1.0, 2.5, 0.4)):
        engine.system.velocities *= scale
    batch = MDEngine.lockstep(engines)
    flags = _check_steps(batch, 10)
    assert any(any(f) and not all(f) for f in flags), flags
