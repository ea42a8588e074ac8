"""Columnar force results: a kernel's ``compute_runs`` over R runs
holds, row by row, exactly what R one-run ``compute`` calls return,
field by field and with the same Python types (the run cache pickles
these results, so a numpy scalar or a -0.0 for 0.0 would move bytes)."""

import numpy as np
import pytest

from repro.md import MDEngine
from repro.md.forces.base import ForceColumns, ForceResult
from repro.workloads import BUILDERS

SCALARS = ("energy", "terms", "flops", "bytes_irregular", "bytes_regular")


def assert_same_result(got: ForceResult, want: ForceResult) -> None:
    for name in SCALARS:
        a, b = getattr(got, name), getattr(want, name)
        assert (type(a), repr(a)) == (type(b), repr(b)), name
        assert type(b) is (int if name == "terms" else float), name
    assert got.per_atom_work.dtype == want.per_atom_work.dtype
    assert np.array_equal(got.per_atom_work, want.per_atom_work)


@pytest.mark.parametrize(
    "workload, kernels",
    [
        ("nanocar", {"lj", "bond-radial", "bond-angular", "bond-torsional"}),
        ("ionic-64", {"lj", "coulomb"}),
        ("gas-8", {"lj"}),
    ],
)
def test_columns_equal_one_run_computes(workload, kernels):
    seeds = (0, 1, 2)
    batch = MDEngine.lockstep(
        [BUILDERS[workload](seed=s).make_engine() for s in seeds]
    )
    batch.prime()
    alone = [BUILDERS[workload](seed=s).make_engine() for s in seeds]
    for engine in alone:
        engine.prime()
    assert {f.name for f in batch.forces} == kernels
    R, N = len(seeds), batch.system.n_atoms
    for k, kernel in enumerate(batch._kernels):
        out = np.zeros((R * N, 3))
        columns = kernel.compute_runs(
            batch._flat, batch._box, batch._pairs, out, R
        )
        assert isinstance(columns, ForceColumns)
        assert columns.per_atom_work.shape == (R, N)
        rows = columns.results()
        assert len(rows) == R
        for r, engine in enumerate(alone):
            one = np.zeros((N, 3))
            want = engine.forces[k].compute(
                engine.system, engine.boundary, engine.neighbors, one
            )
            assert_same_result(rows[r], want)
            assert np.array_equal(out[r * N:(r + 1) * N], one)


def test_empty_columns_are_zero_results():
    (row,) = ForceColumns.empty(1, 4).results()
    assert_same_result(row, ForceResult.empty(4))


def test_summed_columns_equal_sequential_python_sums():
    """``ForceColumns`` adds field by field; each float add is the
    same IEEE add as a Python ``+=`` over the kernels' scalars."""
    rng = np.random.default_rng(3)

    def columns():
        return ForceColumns(
            rng.normal(size=4), rng.integers(0, 9, 4),
            rng.random((4, 5)), rng.random(4) * 1e6, rng.random(4),
            rng.random(4),
        )

    parts = [columns() for _ in range(3)]
    total = sum(parts, ForceColumns.empty(4, 5)).results()
    for r in range(4):
        energy, terms = 0.0, 0
        for part in parts:
            energy += part.energy.tolist()[r]
            terms += part.terms.tolist()[r]
        assert total[r].energy == energy
        assert total[r].terms == terms and type(total[r].terms) is int
