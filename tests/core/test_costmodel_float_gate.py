"""Cost plans carry Python floats, with the array-valued shares as oracle.

:meth:`MachineCostModel._share` returns a list of plain floats.  It
used to return an ``np.array``, so every byte and cycle count priced
from a share was an ``np.float64``, and the burst loop did its compare,
clamp and arithmetic on numpy scalars.  The oracle below is that
earlier form, kept verbatim.  The new shares must equal it bit for bit
(``repr(float(old)) == repr(new)``), and every ``WorkCost.cycles``,
``_total_bytes`` and ``Traffic.n_bytes`` that ``step_phases`` hands
out must be a Python ``float`` or ``int``.  ``tests/core/
test_costmodel_oracle.py`` cannot see the type: its oracle calls
``cm._share`` itself.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core import SimulatedParallelRun, capture_trace
from repro.core.costmodel import MachineCostModel
from repro.machine import MACHINES, SimMachine
from repro.workloads import BUILDERS

_STEPS = 6  # nanocar rebuilds at step 0, Al-1000 at step 3

_traces = {}


def _trace(workload):
    if workload not in _traces:
        wl = BUILDERS[workload]()
        _traces[workload] = (wl.system.n_atoms, capture_trace(wl, _STEPS))
    return _traces[workload]


def oracle_share(cm, work, ranges=None):
    """``MachineCostModel._share`` as it was: an ``np.array``."""
    ranges = cm.ranges if ranges is None else ranges
    per_atom = work.per_atom
    total = float(per_atom.sum())
    if total <= 0:
        return np.zeros(len(ranges))
    return np.array(
        [per_atom[lo:hi].sum() / total for lo, hi in ranges]
    )


#: the default plan, an unfused rebuild, and finer force chunks
_CONFIGS = [
    dict(),
    dict(fuse_rebuild=False),
    dict(chunk="fixed", chunk_factor=3),
]


def _cost_model(workload, threads, config) -> MachineCostModel:
    n_atoms, trace = _trace(workload)
    run = SimulatedParallelRun(
        trace, n_atoms, SimMachine(MACHINES["x7560x4"]), threads,
        name=workload, **_CONFIGS[config],
    )
    return run.cost_model


def _works(cm, report):
    """Every PhaseWork the model prices for one step, fused force work
    included."""
    pw = report.phase_work
    works = list(pw.values())
    if report.rebuilt and pw["rebuild"].flops > 0:
        works.append(cm._merge_phase_work(pw["rebuild"], pw["forces"]))
    return works


def _not_python_numbers(cm, trace):
    """(phase, field, type name) of every priced number that is not a
    Python float or int."""
    bad = []
    for report in trace:
        for name, costs in cm.step_phases(report):
            for c in costs:
                values = [("cycles", c.cycles), ("_total_bytes", c._total_bytes)]
                values += [("n_bytes", t.n_bytes) for t in c.reads + c.writes]
                bad += [
                    (name, what, type(v).__name__)
                    for what, v in values
                    if type(v) not in (float, int)
                ]
    return bad


@pytest.mark.parametrize("workload", ["salt", "nanocar", "Al-1000"])
@pytest.mark.parametrize("threads", [1, 8, 32])
@pytest.mark.parametrize("config", range(len(_CONFIGS)))
def test_shares_equal_the_array_oracle_bit_for_bit(workload, threads, config):
    cm = _cost_model(workload, threads, config)
    _n_atoms, trace = _trace(workload)
    for report in trace:
        for work in _works(cm, report):
            for ranges in (cm.ranges, cm.force_ranges):
                got = cm._share(work, ranges)
                want = oracle_share(cm, work, ranges)
                assert [type(x) for x in got] == [float] * len(want)
                assert [repr(x) for x in got] == [
                    repr(float(x)) for x in want
                ]


@pytest.mark.parametrize("workload", ["salt", "nanocar", "Al-1000"])
@pytest.mark.parametrize("threads", [1, 8, 32])
@pytest.mark.parametrize("config", range(len(_CONFIGS)))
def test_step_phases_carry_python_numbers(workload, threads, config):
    cm = _cost_model(workload, threads, config)
    assert _not_python_numbers(cm, _trace(workload)[1]) == []


def test_the_type_gate_fails_array_shares():
    """The gate is not vacuous: the oracle's ``np.array`` shares make
    every share-priced number an ``np.float64``."""
    cm = _cost_model("nanocar", 8, 0)
    with mock.patch.object(
        MachineCostModel, "_share", oracle_share
    ):
        bad = _not_python_numbers(cm, _trace("nanocar")[1])
    assert {what for _name, what, _type in bad} == {
        "cycles", "_total_bytes", "n_bytes",
    }
    assert {type_ for _name, _what, type_ in bad} == {"float64"}
