"""Per-axis pair geometry against the row-per-pair forms it replaced.

The pair kernels hold displacements as ``(3, P)`` axis rows.
:func:`dot3` must sum them exactly as ``np.einsum("ij,ij->i")`` sums
the ``(P, 3)`` rows the kernels used to build — the Coulomb ring's r²,
the LJ and rebuild cutoff tests and the bonded dot products all rest
on it — and :func:`pair_displacements` must give the bits of the 2-D
fancy-index gather, through either boundary.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.md.boundary import PeriodicBox, ReflectiveBox
from repro.md.neighbors import dot3, pair_displacements

#: finite components whose squares and sums stay finite, subnormals
#: and signed zeros included
components = st.floats(
    min_value=-1e150, max_value=1e150, allow_nan=False, allow_subnormal=True
)
rows = st.integers(0, 40).flatmap(
    lambda p: arrays(np.float64, (p, 3), elements=components)
)


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(d=rows)
# x·x + y·y + z·z, left to right, gives one ulp more
@example(d=np.array([[-2.711, -1.889, -0.175]]))
def test_coulomb_r2_matches_einsum(d):
    """r² of axis rows as the Coulomb ring forms it (``out`` and
    ``tmp`` given) and as the LJ kernel and the rebuild do (neither
    given)."""
    want = np.einsum("ij,ij->i", d, d)
    cols = d.T.copy()
    r2, tmp = np.empty(len(d)), np.empty(len(d))
    _same_bits(dot3(cols, cols, out=r2, tmp=tmp), want)
    _same_bits(r2, want)
    _same_bits(dot3(cols, cols), want)


@settings(max_examples=300, deadline=None)
@given(
    ab=st.integers(0, 40).flatmap(
        lambda p: st.tuples(
            arrays(np.float64, (p, 3), elements=components),
            arrays(np.float64, (p, 3), elements=components),
        )
    )
)
@example(ab=(np.zeros((1, 3)), -np.zeros((1, 3))))  # all products -0.0
def test_dot_products_match_einsum(ab):
    """The bonded kernels' dot products of two different vectors,
    signed zeros included: einsum never returns -0.0."""
    a, b = ab
    _same_bits(dot3(a.T.copy(), b.T.copy()), np.einsum("ij,ij->i", a, b))


def test_r2_matches_einsum_over_a_ring_sized_block():
    """One block the size of salt's Coulomb ring (319,600 pairs)."""
    rng = np.random.default_rng(11)
    d = rng.normal(size=(319_600, 3)) * rng.uniform(0.0, 40.0, (319_600, 1))
    cols = d.T.copy()
    _same_bits(dot3(cols, cols), np.einsum("ij,ij->i", d, d))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 30),
    p=st.integers(0, 60),
    periodic=st.booleans(),
)
def test_pair_displacements_match_row_gather(seed, n, p, periodic):
    rng = np.random.default_rng(seed)
    box = np.array([17.0, 13.0, 19.0])
    positions = rng.uniform(-2.0, 1.2, (n, 3)) * box
    i, j = rng.integers(0, n, (2, p))
    boundary = (PeriodicBox if periodic else ReflectiveBox)(box)
    want = boundary.displacement(positions[i] - positions[j])
    got = pair_displacements(positions, i, j, boundary)
    assert got.shape == (3, p)
    _same_bits(np.ascontiguousarray(got.T), want)
