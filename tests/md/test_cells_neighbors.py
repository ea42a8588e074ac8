"""Tests for linked cells and Verlet neighbor lists, including
brute-force cross-checks and hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.boundary import PeriodicBox, ReflectiveBox
from repro.md.cells import LinkedCellGrid
from repro.md.neighbors import NeighborList


def brute_force_pairs(positions, cutoff, boundary):
    n = len(positions)
    ii, jj = np.triu_indices(n, k=1)
    dr = boundary.displacement(positions[ii] - positions[jj])
    r2 = np.einsum("ij,ij->i", dr, dr)
    keep = r2 <= cutoff * cutoff
    return set(zip(ii[keep].tolist(), jj[keep].tolist()))


def nlist_pairs(nl):
    return set(zip(nl.pairs_i.tolist(), nl.pairs_j.tolist()))


def test_grid_dims_and_cell_size():
    g = LinkedCellGrid(np.array([30.0, 20.0, 10.0]), cell_size=5.0)
    assert g.dims.tolist() == [6, 4, 2]
    assert g.n_cells == 48
    assert np.allclose(g.cell_size, [5.0, 5.0, 5.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        LinkedCellGrid(np.array([10.0, 10.0, 10.0]), cell_size=0)
    with pytest.raises(ValueError):
        LinkedCellGrid(np.array([-1.0, 10.0, 10.0]), cell_size=1.0)


def test_grid_build_and_occupancy():
    g = LinkedCellGrid(np.array([10.0, 10.0, 10.0]), cell_size=5.0)
    pos = np.array([[1, 1, 1], [2, 2, 2], [8, 8, 8]], dtype=float)
    g.build(pos)
    assert g.occupancy().sum() == 3
    first_cell = g.linear_ids(g.cell_coords(pos[:1]))[0]
    assert set(g.atoms_in_cell(int(first_cell))) == {0, 1}


def test_grid_requires_build():
    g = LinkedCellGrid(np.array([10.0, 10.0, 10.0]), cell_size=5.0)
    with pytest.raises(RuntimeError):
        g.atoms_in_cell(0)
    with pytest.raises(RuntimeError):
        g.candidate_pairs()


def test_candidate_pairs_cover_cutoff_pairs():
    """Every pair within cell_size must appear among candidates."""
    rng = np.random.default_rng(0)
    box = np.array([20.0, 20.0, 20.0])
    pos = rng.uniform(0, 20, (150, 3))
    g = LinkedCellGrid(box, cell_size=4.0)
    g.build(pos)
    ci, cj = g.candidate_pairs()
    cand = set(zip(ci.tolist(), cj.tolist()))
    boundary = ReflectiveBox(box)
    required = brute_force_pairs(pos, 4.0, boundary)
    assert required <= cand
    # i < j everywhere, no duplicates
    assert np.all(ci < cj)
    assert len(cand) == len(ci)


def test_candidate_pairs_periodic_cover():
    rng = np.random.default_rng(1)
    box = np.array([15.0, 15.0, 15.0])
    pos = rng.uniform(0, 15, (100, 3))
    g = LinkedCellGrid(box, cell_size=5.0, periodic=True)
    g.build(pos)
    ci, cj = g.candidate_pairs()
    cand = set(zip(ci.tolist(), cj.tolist()))
    required = brute_force_pairs(pos, 5.0, PeriodicBox(box))
    assert required <= cand
    assert len(cand) == len(ci)  # dedup worked


def test_empty_grid_candidates():
    g = LinkedCellGrid(np.array([10.0, 10.0, 10.0]), cell_size=5.0)
    g.build(np.zeros((0, 3)))
    i, j = g.candidate_pairs()
    assert len(i) == 0 and len(j) == 0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
    cell=st.floats(min_value=2.0, max_value=8.0),
)
def test_property_cell_pairs_superset_of_cutoff_pairs(n, seed, cell):
    """Property: linked-cell candidates always cover all pairs within
    the cell size, for any atom count / density / cell size."""
    rng = np.random.default_rng(seed)
    box = np.array([17.0, 13.0, 19.0])
    pos = rng.uniform(0, 1, (n, 3)) * box
    g = LinkedCellGrid(box, cell_size=cell)
    g.build(pos)
    ci, cj = g.candidate_pairs()
    cand = set(zip(ci.tolist(), cj.tolist()))
    required = brute_force_pairs(pos, cell, ReflectiveBox(box))
    assert required <= cand


def test_neighbor_list_matches_brute_force():
    rng = np.random.default_rng(2)
    box = np.array([25.0, 25.0, 25.0])
    pos = rng.uniform(0, 25, (200, 3))
    boundary = ReflectiveBox(box)
    nl = NeighborList(cutoff=4.0, skin=1.0)
    nl.build(pos, boundary)
    # the list keeps pairs out to cutoff+skin
    assert nlist_pairs(nl) == brute_force_pairs(pos, 5.0, boundary)
    # pairs_within filters to the true cutoff
    i, j, dr = nl.pairs_within(pos, boundary)
    assert set(zip(i.tolist(), j.tolist())) == brute_force_pairs(
        pos, 4.0, boundary
    )


def test_needs_rebuild_on_displacement():
    rng = np.random.default_rng(3)
    box = np.array([20.0, 20.0, 20.0])
    pos = rng.uniform(0, 20, (50, 3))
    boundary = ReflectiveBox(box)
    nl = NeighborList(cutoff=4.0, skin=1.0)
    assert nl.needs_rebuild(pos)  # never built
    nl.build(pos, boundary)
    assert not nl.needs_rebuild(pos)
    moved = pos.copy()
    moved[7, 1] += 0.4  # under skin/2
    assert not nl.needs_rebuild(moved)
    moved[7, 1] += 0.2  # over skin/2 total
    assert nl.needs_rebuild(moved)


def test_rebuild_counting():
    rng = np.random.default_rng(4)
    box = np.array([20.0, 20.0, 20.0])
    pos = rng.uniform(0, 20, (50, 3))
    boundary = ReflectiveBox(box)
    nl = NeighborList(cutoff=4.0, skin=1.0)
    nl.build(pos, boundary)
    assert not nl.needs_rebuild(pos)
    assert nl.rebuild_count == 1
    nl.build(pos, boundary)
    assert nl.rebuild_count == 2


def test_per_atom_counts_ownership_asymmetry():
    """Lower-indexed atoms own more pairs (§II-B)."""
    rng = np.random.default_rng(5)
    box = np.array([15.0, 15.0, 15.0])
    pos = rng.uniform(0, 15, (100, 3))
    nl = NeighborList(cutoff=5.0, skin=0.5)
    nl.build(pos, ReflectiveBox(box))
    counts = nl.per_atom_counts(100)
    assert counts.sum() == nl.n_pairs
    # the last atom can never own a pair
    assert counts[99] == 0
    # first half owns more than second half on average
    assert counts[:50].mean() > counts[50:].mean()


def test_neighbors_of_bidirectional():
    pos = np.array([[1.0, 1, 1], [2.0, 1, 1], [8.0, 8, 8]])
    nl = NeighborList(cutoff=3.0, skin=0.5)
    nl.build(pos, ReflectiveBox(np.array([10.0, 10.0, 10.0])))
    assert nl.neighbors_of(0).tolist() == [1]
    assert nl.neighbors_of(1).tolist() == [0]
    assert nl.neighbors_of(2).tolist() == []


def test_neighbor_list_validation():
    with pytest.raises(ValueError):
        NeighborList(cutoff=0.0)
    with pytest.raises(ValueError):
        NeighborList(cutoff=1.0, skin=-0.1)
    nl = NeighborList(cutoff=1.0)
    with pytest.raises(RuntimeError):
        nl.pairs_within(
            np.zeros((2, 3)), ReflectiveBox(np.array([1.0, 1, 1]))
        )
