"""Cross-cutting property-based tests (hypothesis).

Invariants that must hold for *any* input, not just the benchmark
configurations: conservation laws in the force fields, coverage of the
pair enumerations, capacity bounds in the cache model, mutual exclusion
in the DES primitives, and permutation round-trips.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Lock, Simulator, Timeout
from repro.machine.cachestate import LlcState, Region
from repro.machine.cost import Traffic, WorkCost
from repro.md import (
    AngularBondForce,
    AtomSystem,
    CoulombForce,
    LennardJonesForce,
    RadialBondForce,
    TorsionalBondForce,
)
from repro.md.boundary import ReflectiveBox
from repro.md.forces.coulomb import half_shell_pairs
from repro.md.neighbors import NeighborList

BOX = np.array([60.0, 60.0, 60.0])


def random_system(seed, n, charged=False):
    rng = np.random.default_rng(seed)
    s = AtomSystem(BOX)
    pos = 20.0 + rng.uniform(0, 12, (n, 3))
    charges = rng.choice([-1.0, 1.0], size=n) if charged else None
    s.add_atoms("Al", pos, charges=charges)
    return s


def total_force(force, system, with_nlist=True):
    boundary = ReflectiveBox(system.box)
    nl = None
    if with_nlist:
        nl = NeighborList(cutoff=12.0, skin=1.0)
        nl.build(system.positions, boundary)
    out = np.zeros_like(system.positions)
    force.compute(system, boundary, nl, out)
    return out


# ------------------------------------------------------- conservation ----


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
def test_property_lj_momentum_conserved(seed, n):
    system = random_system(seed, n)
    f = total_force(LennardJonesForce(), system)
    # overlapping random atoms can give huge forces; conservation is
    # relative to the force scale
    scale = max(1.0, float(np.abs(f).max()))
    assert np.allclose(f.sum(axis=0), 0.0, atol=1e-12 * scale)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 20))
def test_property_coulomb_momentum_conserved(seed, n):
    system = random_system(seed, n, charged=True)
    f = total_force(CoulombForce(), system, with_nlist=False)
    scale = max(1.0, float(np.abs(f).max()))
    assert np.allclose(f.sum(axis=0), 0.0, atol=1e-12 * scale)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_lj_translation_invariant(seed):
    """Shifting every atom by the same vector changes nothing."""
    a = random_system(seed, 12)
    f_a = total_force(LennardJonesForce(), a)
    b = a.copy()
    b.positions += np.array([1.3, -0.7, 2.1])
    f_b = total_force(LennardJonesForce(), b)
    assert np.allclose(f_a, f_b, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(4, 16))
def test_property_bonded_forces_momentum_conserved(seed, n):
    rng = np.random.default_rng(seed)
    system = random_system(seed, n)
    pairs = np.array([[i, (i + 1) % n] for i in range(n - 1)])
    triples = np.array([[i, i + 1, i + 2] for i in range(n - 2)])
    quads = np.array([[i, i + 1, i + 2, i + 3] for i in range(n - 3)])
    for force in (
        RadialBondForce(pairs, k=2.0, r0=2.5),
        AngularBondForce(triples, k=1.0, theta0=2.0),
        TorsionalBondForce(quads, v=0.5, periodicity=2),
    ):
        f = total_force(force, system, with_nlist=False)
        scale = max(1.0, float(np.abs(f).max()))
        assert np.allclose(
            f.sum(axis=0), 0.0, atol=1e-11 * scale
        ), type(force)


# ---------------------------------------------------- pair coverage ----


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 80))
def test_property_half_shell_covers_all_pairs_once(m):
    i, j = half_shell_pairs(m)
    seen = set()
    for a, b in zip(i.tolist(), j.tolist()):
        key = (min(a, b), max(a, b))
        assert key not in seen
        seen.add(key)
    assert len(seen) == m * (m - 1) // 2
    # ownership balanced within one pair
    counts = np.bincount(i, minlength=m)
    assert counts.max() - counts.min() <= 1


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 40),
    parts=st.integers(1, 6),
)
def test_property_restricted_lj_partitions_exactly(seed, n, parts):
    """Restricted LJ copies over any partition reproduce the full force."""
    from repro.core.partition import block_partition

    system = random_system(seed, n)
    full = total_force(LennardJonesForce(), system)
    boundary = ReflectiveBox(system.box)
    nl = NeighborList(cutoff=12.0, skin=1.0)
    nl.build(system.positions, boundary)
    acc = np.zeros_like(system.positions)
    for lo, hi in block_partition(n, parts):
        LennardJonesForce().restrict(lo, hi).compute(
            system, boundary, nl, acc
        )
    assert np.allclose(acc, full, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 40),
    parts=st.integers(1, 6),
)
def test_property_restricted_coulomb_partitions_exactly(seed, n, parts):
    """Restricted Coulomb copies over any partition reproduce the full
    force, and each ring pair is evaluated by exactly one copy."""
    from repro.core.partition import block_partition

    system = random_system(seed, n, charged=True)
    system.charges[::3] = 0.0  # neutral atoms between charged ones
    boundary = ReflectiveBox(system.box)
    full = np.zeros_like(system.positions)
    full_terms = CoulombForce().compute(system, boundary, None, full).terms
    acc = np.zeros_like(system.positions)
    terms = 0
    for lo, hi in block_partition(n, parts):
        terms += CoulombForce().restrict(lo, hi).compute(
            system, boundary, None, acc
        ).terms
    assert np.allclose(acc, full, atol=1e-10)
    assert terms == full_terms


# ------------------------------------------------------- cache model ----


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    capacity_mb=st.floats(0.5, 16.0),
    n_ops=st.integers(1, 60),
)
def test_property_llc_never_exceeds_capacity(seed, capacity_mb, n_ops):
    rng = np.random.default_rng(seed)
    llc = LlcState(0, int(capacity_mb * 2**20))
    regions = [
        Region(f"r{k}", int(rng.uniform(0.1, 8.0) * 2**20))
        for k in range(5)
    ]
    for _ in range(n_ops):
        r = regions[rng.integers(0, len(regions))]
        n_bytes = float(rng.uniform(0, 4.0) * 2**20)
        if rng.random() < 0.5:
            llc.touch(r, n_bytes)
        else:
            llc.install(r, n_bytes)
        assert llc.used_bytes <= llc.capacity + 1e-6
        assert llc.resident_bytes(r) <= r.size_bytes + 1e-6
        assert llc.resident_bytes(r) >= 0


# -------------------------------------------------------------- DES ----


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_threads=st.integers(2, 8),
    n_rounds=st.integers(1, 5),
)
def test_property_lock_mutual_exclusion(seed, n_threads, n_rounds):
    rng = np.random.default_rng(seed)
    sim = Simulator()
    lock = Lock(sim)
    state = {"inside": 0, "violations": 0, "entries": 0}
    delays = rng.uniform(0.01, 1.0, size=(n_threads, n_rounds, 2))

    def worker(i):
        for r in range(n_rounds):
            yield Timeout(float(delays[i, r, 0]))
            yield lock.acquire()
            state["inside"] += 1
            state["entries"] += 1
            if state["inside"] > 1:
                state["violations"] += 1
            yield Timeout(float(delays[i, r, 1]))
            state["inside"] -= 1
            lock.release()

    for i in range(n_threads):
        sim.spawn(worker(i))
    sim.run()
    assert state["violations"] == 0
    assert state["entries"] == n_threads * n_rounds


# ---------------------------------------------------------- permute ----


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 50))
def test_property_permute_roundtrip(seed, n):
    rng = np.random.default_rng(seed)
    system = random_system(seed, n)
    ref = system.copy()
    order = rng.permutation(n)
    inverse = system.permute(order)
    # inverse really inverts
    system.permute(np.argsort(np.argsort(order)))  # no-op guard
    system2 = ref.copy()
    inv2 = system2.permute(order)
    system2.permute(np.argsort(inv2[np.argsort(inv2)]))  # identity
    # the simple property: permute by order then by inverse-as-order
    system3 = ref.copy()
    order3 = rng.permutation(n)
    inv3 = system3.permute(order3)
    back = np.argsort(order3)
    system3.permute(back)
    assert np.allclose(system3.positions, ref.positions)
    assert np.array_equal(system3.element_ids, ref.element_ids)
    # the returned inverse maps old -> new
    sys4 = ref.copy()
    inv4 = sys4.permute(order3)
    for old in range(n):
        assert np.allclose(
            sys4.positions[inv4[old]], ref.positions[old]
        )


# ----------------------------------------------------------- WorkCost ----


@settings(max_examples=30, deadline=None)
@given(
    cycles=st.floats(0, 1e9),
    nbytes=st.floats(0, 1e8),
    factor=st.floats(0, 10.0),
)
def test_property_workcost_scaling(cycles, nbytes, factor):
    region = Region("r", 2**20)
    cost = WorkCost(cycles=cycles, reads=(Traffic(region, nbytes),))
    scaled = cost.scaled(factor)
    assert scaled.cycles == pytest.approx(cycles * factor)
    assert scaled.read_bytes == pytest.approx(nbytes * factor)
    total = cost + cost
    assert total.cycles == pytest.approx(2 * cycles)
    assert total.total_bytes == pytest.approx(2 * nbytes)
