"""Lockstep gate: every registered workload joins a seed batch.

A sweep batches fault-free capture misses of one ``BUILDERS`` workload
into one lockstep engine.  The supervisor has one failure path for a
batch: any error, :class:`~repro.ensemble.EnsembleUnsupported`
included, fails the batch and its runs retry one spec at a time.  So
no registered workload may be one the engine cannot batch; this gate
checks that for seeds 0 and 1 of each.
"""

import pytest

from repro.md import MDEngine
from repro.workloads import BUILDERS


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_workload_joins_a_two_seed_lockstep_engine(name):
    engine = MDEngine.lockstep(
        [BUILDERS[name](seed=seed).make_engine() for seed in (0, 1)]
    )
    assert engine.n_runs == 2
