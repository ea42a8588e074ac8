"""The lockstep contract: a batch of R seeds pickles (protocol 4) to
exactly the bytes of R one-run engines, for any homogeneous batch;
every run's AtomSystem and Verlet list hold its live state — plus the
EnsembleUnsupported fences that reject inhomogeneous batches."""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.simulate import capture_trace
from repro.ensemble import EnsembleUnsupported, ensemble_capture
from repro.md import BerendsenThermostat, MDEngine
from repro.md.forces.base import segment_sums
from repro.workloads import BUILDERS

#: the cache's artifact pickling protocol — identity must hold at the
#: byte level there, not just under ==
PROTOCOL = 4


def dumps(trace) -> bytes:
    return pickle.dumps(trace, PROTOCOL)


def one_run_trace(workload: str, seed: int, steps: int):
    return capture_trace(BUILDERS[workload](seed=seed), steps)


# ------------------------------------- byte-identity, property-checked


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    workload=st.sampled_from(["gas-16", "lj-32", "ionic-64"]),
    n_runs=st.integers(1, 4),
    steps=st.integers(1, 3),
    base_seed=st.integers(0, 3),
)
def test_property_ensemble_trace_is_byte_identical_to_scalar(
    workload, n_runs, steps, base_seed
):
    """For any small homogeneous batch (including batches of one): a
    batch of R seeds pickles to exactly the bytes of R one-run engines
    of the same seeds.  This is the property that lets the sweep
    publish batched results under the runs' own cache digests."""
    seeds = list(range(base_seed, base_seed + n_runs))
    traces = ensemble_capture(workload, steps, seeds)
    assert len(traces) == n_runs
    for seed, trace in zip(seeds, traces):
        assert dumps(trace) == dumps(one_run_trace(workload, seed, steps))


def test_multi_driver_workloads_stay_byte_identical():
    """salt (LJ + Coulomb) and nanocar (LJ + three bonded kernels) run
    several kernels per step: a batch of two seeds must still pickle to
    exactly the bytes of two one-run engines."""
    for workload in ("salt", "nanocar"):
        traces = ensemble_capture(workload, 1, [0, 1])
        for seed, trace in zip([0, 1], traces):
            assert dumps(trace) == dumps(one_run_trace(workload, seed, 1))


# ------------------------------------------------- batched energy sums


def test_segment_sums_equal_segments_match_per_row_sums_bitwise():
    """The reshape(R, m).sum(axis=1) fast path reduces each row over
    the same contiguous memory a per-run slice .sum() reads, so the
    results must be equal as floats (bit-identical), not just close."""
    rng = np.random.default_rng(1234)
    for n_runs, m in [(1, 1), (3, 5), (7, 16), (4, 33)]:
        e_terms = rng.normal(size=n_runs * m)
        seg = [m] * n_runs
        offs = [m * r for r in range(n_runs + 1)]
        got = segment_sums(e_terms, seg)
        want = [
            float(e_terms[offs[r]:offs[r + 1]].sum())
            for r in range(n_runs)
        ]
        assert got.tolist() == want


def test_segment_sums_ragged_segments_and_empty_runs():
    rng = np.random.default_rng(5)
    seg = [3, 0, 5, 1]
    offs = [0, 3, 3, 8, 9]
    e_terms = rng.normal(size=9)
    got = segment_sums(e_terms, seg)
    assert got[1] == 0.0
    want = [
        float(e_terms[offs[r]:offs[r + 1]].sum()) if seg[r] else 0.0
        for r in range(4)
    ]
    assert got.tolist() == want
    assert segment_sums(np.zeros(0), []).tolist() == []


# ------------------------------------------- the unsupported-batch fence


def test_empty_batch_is_rejected():
    with pytest.raises(EnsembleUnsupported):
        MDEngine.lockstep([])


def test_mixed_atom_counts_are_rejected():
    engines = [
        BUILDERS["gas-8"](seed=0).make_engine(),
        BUILDERS["gas-16"](seed=0).make_engine(),
    ]
    with pytest.raises(EnsembleUnsupported, match="atom counts"):
        MDEngine.lockstep(engines)


def test_already_primed_engine_is_rejected():
    fresh = BUILDERS["gas-8"](seed=0).make_engine()
    primed = BUILDERS["gas-8"](seed=1).make_engine()
    primed.prime()
    with pytest.raises(EnsembleUnsupported, match="unstepped"):
        MDEngine.lockstep([fresh, primed])


# --------------------------------------------- cross-run object sharing


def test_phase_work_is_shared_across_runs_but_fresh_per_step():
    """Each run pickles into its own artifact, so identical PhaseWork
    values may be ONE object across runs at the same step — invisible
    to the bytes.  Sharing across steps *within* a run would surface
    via pickle memoization and break identity, so per-step objects
    must stay distinct."""
    t0, t1 = ensemble_capture("gas-16", 2, [0, 1])
    for phase in ("predict", "correct"):
        assert t0[0].phase_work[phase] is t1[0].phase_work[phase]
        assert t0[0].phase_work[phase] is not t0[1].phase_work[phase]


def test_thermostatted_batch_is_rejected():
    """Thermostats run one run at a time: a batch of two thermostatted
    engines splits instead of sharing one pipeline."""
    engines = [
        BUILDERS["gas-8"](seed=seed).make_engine(
            thermostat=BerendsenThermostat(300.0)
        )
        for seed in (0, 1)
    ]
    with pytest.raises(EnsembleUnsupported, match="thermostat"):
        MDEngine.lockstep(engines)


# ------------------------------------------- live per-run state


@pytest.mark.parametrize("n_runs", [1, 3])
def test_every_run_keeps_its_live_state(n_runs):
    """After a lockstep run, each run's AtomSystem holds its final
    positions and velocities, and each run's Verlet list counts its
    own rebuilds: 1 (prime) plus the reports with ``rebuilt=True``."""
    workload, steps = "ionic-64", 40  # seed-dependent rebuild steps
    engines = [
        BUILDERS[workload](seed=seed).make_engine() for seed in range(n_runs)
    ]
    engine = MDEngine.lockstep(engines)
    traces = engine.run_all(steps)
    assert sum(rep.rebuilt for trace in traces for rep in trace) > 0
    for seed, (one, trace) in enumerate(zip(engines, traces)):
        system = one.system
        assert system is engine.systems[seed]
        assert one.neighbors.rebuild_count == 1 + sum(
            rep.rebuilt for rep in trace
        )
        # the velocities are the final ones ...
        assert system.kinetic_energy() == trace[-1].kinetic_energy
        # ... and so are the positions: a fresh engine on a copy of
        # the system sees the last step's potential energy
        fresh = BUILDERS[workload](seed=seed)
        fresh.system = system.copy()
        assert fresh.make_engine().potential_energy() == pytest.approx(
            trace[-1].potential_energy, rel=1e-12, abs=1e-12
        )
        # a one-run engine of the same seed ends in the same state
        alone = BUILDERS[workload](seed=seed).make_engine()
        alone.run(steps)
        np.testing.assert_array_equal(system.positions, alone.system.positions)
        np.testing.assert_array_equal(
            system.velocities, alone.system.velocities
        )
