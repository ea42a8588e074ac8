"""The stacked neighbor-list build against the per-run build it
replaced, kept here unchanged as the reference oracle.

The oracle builds one run at a time: a linked-cell grid over the run's
box, its candidate pairs, the ``r² ≤ reach²`` filter and a ``lexsort``
by owner.  :func:`repro.md.neighbors.build_lists` rebuilds many runs in
one stacked pass per box group; every rebuilt list must hold the same
pairs, with the same dtype and order, and the same ``last_candidates``
as the oracle's build of that run alone, because the rebuild work
counts and the pair order reach the pinned trace bytes.
"""

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.md.boundary import PeriodicBox, ReflectiveBox
from repro.md.neighbors import NeighborList, build_lists

_HALF_STENCIL = [
    off for off in itertools.product((-1, 0, 1), repeat=3)
    if off > (0, 0, 0)
]


def oracle_candidates(box, cell_size, periodic, positions):
    """The one-run ``LinkedCellGrid`` build and ``candidate_pairs``,
    unchanged."""
    dims = np.maximum(1, (box / cell_size).astype(np.int64))
    if periodic and np.any((dims < 3) & (dims > 1)):
        dims = np.where(dims < 3, 1, dims)
    size = box / dims
    n_cells = int(np.prod(dims))
    coords = np.clip(
        np.floor(positions / size).astype(np.int64), 0, dims - 1
    )
    d = dims
    ids = (coords[:, 0] * d[1] + coords[:, 1]) * d[2] + coords[:, 2]
    order = np.argsort(ids, kind="stable")
    starts = np.searchsorted(ids[order], np.arange(n_cells + 1))
    n = len(order)
    empty = np.zeros(0, dtype=np.int64)
    if n == 0:
        return empty, empty.copy()
    cell_of_slot = np.repeat(
        np.arange(n_cells, dtype=np.int64), np.diff(starts)
    )
    sx = cell_of_slot // (d[1] * d[2])
    sy = (cell_of_slot // d[2]) % d[1]
    sz = cell_of_slot % d[2]
    slots = np.arange(n, dtype=np.int64)

    def expand(first_slot, counts, src_slots):
        total = int(counts.sum())
        if total == 0:
            return empty, empty
        firsts = np.repeat(first_slot, counts)
        shift = np.repeat(np.cumsum(counts) - counts, counts)
        tgt = firsts + (np.arange(total, dtype=np.int64) - shift)
        return np.repeat(src_slots, counts), tgt

    out_i, out_j = [], []

    def emit(src, tgt, drop_self=False):
        pi, pj = order[src], order[tgt]
        if drop_self:
            keep = pi != pj
            pi, pj = pi[keep], pj[keep]
        swap = pi > pj
        out_i.append(np.where(swap, pj, pi))
        out_j.append(np.where(swap, pi, pj))

    src, tgt = expand(slots + 1, starts[cell_of_slot + 1] - slots - 1, slots)
    emit(src, tgt)
    for ox, oy, oz in _HALF_STENCIL:
        nx, ny, nz = sx + ox, sy + oy, sz + oz
        if periodic:
            nx, ny, nz = nx % d[0], ny % d[1], nz % d[2]
            a_slots = slots
        else:
            valid = (
                (nx >= 0) & (ny >= 0) & (nz >= 0)
                & (nx < d[0]) & (ny < d[1]) & (nz < d[2])
            )
            nx, ny, nz = nx[valid], ny[valid], nz[valid]
            a_slots = slots[valid]
        nid = (nx * d[1] + ny) * d[2] + nz
        if periodic:
            off_cell = nid != cell_of_slot[a_slots]
            nid, a_slots = nid[off_cell], a_slots[off_cell]
        counts = starts[nid + 1] - starts[nid]
        src, tgt = expand(starts[nid], counts, a_slots)
        emit(src, tgt, drop_self=periodic)
    i = np.concatenate(out_i)
    j = np.concatenate(out_j)
    if len(i) == 0:
        return empty, empty.copy()
    if periodic:
        key = i.astype(np.int64) * (int(j.max()) + 1) + j
        _, keep = np.unique(key, return_index=True)
        i, j = i[np.sort(keep)], j[np.sort(keep)]
    return i, j


def oracle_build(positions, boundary, cutoff, skin):
    """The one-run ``NeighborList.build``, unchanged: returns
    ``(pairs_i, pairs_j, last_candidates)``."""
    reach = cutoff + skin
    ci, cj = oracle_candidates(
        boundary.box, reach, boundary.periodic, positions
    )
    n_candidates = len(ci)
    if len(ci):
        dr = boundary.displacement(positions[ci] - positions[cj])
        r2 = np.einsum("ij,ij->i", dr, dr)
        keep = r2 <= reach * reach
        ci, cj = ci[keep], cj[keep]
    order = np.lexsort((cj, ci))
    return ci[order], cj[order], n_candidates


#: boxes mixed within one batch; the 7 Å axis collapses to one cell
#: in periodic grids at these reaches
BOXES = [
    np.array([17.0, 13.0, 19.0]),
    np.array([12.0, 12.0, 12.0]),
    np.array([7.0, 12.0, 9.0]),
]
#: (cutoff, skin) pairs mixed within one batch
REACHES = [(2.5, 0.8), (4.0, 0.5)]

run_strategy = st.tuples(
    st.sampled_from(range(len(BOXES))),
    st.booleans(),                      # periodic
    st.sampled_from(range(len(REACHES))),
    st.integers(min_value=0, max_value=40),  # atoms
    st.integers(min_value=0, max_value=2**31),  # position seed
    st.booleans(),                      # flagged for rebuild
)


def _positions(box, n, seed):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (n, 3)) * box


def _same_as_oracle(nl, positions, boundary):
    pi, pj, n_candidates = oracle_build(
        positions, boundary, nl.cutoff, nl.skin
    )
    assert nl.pairs_i.dtype == pi.dtype and nl.pairs_j.dtype == pj.dtype
    assert np.array_equal(nl.pairs_i, pi)
    assert np.array_equal(nl.pairs_j, pj)
    assert nl.last_candidates == n_candidates
    assert np.array_equal(nl._ref_positions, positions)


@settings(max_examples=150, deadline=None)
@given(runs=st.lists(run_strategy, min_size=1, max_size=7))
@example(runs=[(0, False, 0, 0, 0, True), (0, False, 0, 1, 1, True)])
@example(runs=[(1, True, 1, 0, 2, True), (1, True, 1, 30, 3, True)])
def test_stacked_build_equals_per_run_oracle(runs):
    """A batch of runs with mixed boxes, periodicity and reaches, some
    empty or without candidates: the flagged runs rebuild in one
    ``build_lists`` call and each equals its one-run oracle build; the
    unflagged lists keep their earlier build untouched."""
    nlists, boundaries, before, after = [], [], [], []
    for box_id, periodic, reach_id, n, seed, _ in runs:
        box = BOXES[box_id]
        boundaries.append((PeriodicBox if periodic else ReflectiveBox)(box))
        nlists.append(NeighborList(*REACHES[reach_id]))
        before.append(_positions(box, n, seed))
        after.append(_positions(box, n, seed + 1))
    build_lists(nlists, before, boundaries)
    for nl, positions, boundary in zip(nlists, before, boundaries):
        _same_as_oracle(nl, positions, boundary)
    earlier = [(nl.pairs_i, nl.pairs_j, nl.last_candidates) for nl in nlists]

    flagged = [r for r, run in enumerate(runs) if run[-1]]
    build_lists(
        [nlists[r] for r in flagged],
        [after[r] for r in flagged],
        [boundaries[r] for r in flagged],
    )
    for r, nl in enumerate(nlists):
        if r in flagged:
            _same_as_oracle(nl, after[r], boundaries[r])
            assert nl.rebuild_count == 2
        else:
            pi, pj, n_candidates = earlier[r]
            assert nl.pairs_i is pi and nl.pairs_j is pj
            assert nl.last_candidates == n_candidates
            assert nl.rebuild_count == 1


def test_one_list_builds_as_a_one_run_batch():
    """``NeighborList.build`` is the one-run case of ``build_lists``."""
    boundary = PeriodicBox(BOXES[1])
    positions = _positions(BOXES[1], 60, 7)
    alone, batched = NeighborList(2.5), NeighborList(2.5)
    alone.build(positions, boundary)
    build_lists([batched], [positions], [boundary])
    _same_as_oracle(alone, positions, boundary)
    assert np.array_equal(alone.pairs_i, batched.pairs_i)
    assert np.array_equal(alone.pairs_j, batched.pairs_j)
    assert alone.last_candidates == batched.last_candidates > 0
