"""``dumps_artifact`` against plain ``pickle.dumps``: the bit-exact oracle.

``dumps_artifact`` gives its pickler a dispatch table of reducers for
the trace types a capture holds thousands of.  Each reducer returns
what ``object.__reduce_ex__(4)`` (or ``np.ndarray.__reduce__``) would,
so the stored bytes must equal the default pickler's for every artifact
kind the cache holds.
"""

import pickle

import numpy as np
import pytest

from repro.ensemble import ensemble_capture
from repro.md.engine import PhaseWork, StepReport
from repro.md.forces.base import ForceResult
from repro.runcache import (
    RunCache,
    capture_spec,
    dumps_artifact,
    dumps_artifacts,
    execute_spec,
    observe_spec,
)
from repro.runcache.key import RunSpec
from repro.runcache.store import PICKLE_PROTOCOL, _REDUCERS
from repro.runcache.sweep import toolerror_spec
from repro.workloads import BUILDERS


class Sub(np.ndarray):
    """Not in the table: pickles by the default path."""


def _same_bytes(artifact) -> None:
    assert dumps_artifact(artifact) == pickle.dumps(
        artifact, protocol=PICKLE_PROTOCOL
    )


@pytest.fixture(scope="module")
def cache(tmp_path_factory) -> RunCache:
    return RunCache(tmp_path_factory.mktemp("oracle"))


@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_capture_bytes_match_pickle(workload, cache):
    _same_bytes(execute_spec(capture_spec(workload, 2), cache))


def test_ensemble_batch_bytes_match_pickle():
    _same_bytes(ensemble_capture("gas-8", 2, seeds=(0, 1, 2)))


@pytest.mark.parametrize("workload", ["gas-8", "ionic-64", "nanocar"])
def test_batch_encoder_matches_pickle_per_trace(workload):
    """One pickler encodes a lockstep batch run by run: each blob is
    that trace's own ``pickle.dumps``, although the runs share each
    step's predict, correct and idle-rebuild work objects (which a
    memo carried from one run into the next would reference)."""
    traces = ensemble_capture(workload, 2, seeds=(0, 1, 2))
    first, second = traces[0][0], traces[1][0]
    assert first.phase_work["predict"] is second.phase_work["predict"]
    blobs = list(dumps_artifacts(traces))
    assert blobs == [
        pickle.dumps(trace, protocol=PICKLE_PROTOCOL) for trace in traces
    ]
    assert dumps_artifact(traces[1]) == blobs[1]


def test_observation_bytes_match_pickle(cache):
    _same_bytes(execute_spec(observe_spec("salt", 2, 4, "i7-920"), cache))


def test_chaos_case_bytes_match_pickle(cache):
    spec = RunSpec(
        kind="chaos_case", workload="salt", steps=2, seed=0, threads=4,
        machine="i7-920", options={"gc_model": "chaos"},
    )
    _same_bytes(execute_spec(spec, cache))


def test_toolerror_cell_bytes_match_pickle(cache):
    _same_bytes(execute_spec(toolerror_spec("salt", 2, 4, "i7-920"), cache))


def test_edge_objects_match_pickle():
    """Empty and shared state, array views and non-table subclasses."""
    base = np.arange(12.0).reshape(3, 4)
    bare = PhaseWork.__new__(PhaseWork)  # an empty __dict__: no state
    work = PhaseWork(np.zeros(0), flops=1.0)

    _same_bytes([
        bare, work, work, base, base[:, 1], base.T, np.float64(2.5),
        np.zeros(3, dtype=np.int64).view(Sub), 1 + 2j,
        ForceResult.empty(2),
        StepReport(0, False, 0.0, 0.0, phase_work={"a": work}),
    ])


@pytest.mark.parametrize(
    "array",
    [
        np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        np.arange(20.0)[::3],
        np.arange(24.0).reshape(4, 6)[1:, ::2],
        np.array(3.5),
        np.zeros(0),
        np.zeros((0, 3), dtype=np.int64),
        np.array([True, False, True]),
        np.arange(5, dtype=np.int32),
        np.arange(4.0).astype(">f8"),
        np.array([1, "a", None], dtype=object),
        np.arange(3.0).view(Sub),
    ],
    ids=[
        "fortran", "strided", "strided-2d", "0-d", "empty", "empty-2d",
        "bool", "int32", "big-endian", "object", "subclass",
    ],
)
def test_array_kinds_match_pickle(array):
    """The table's ndarray reducer builds numpy's own reduce tuple for
    C-contiguous arrays and hands every other array to numpy."""
    _same_bytes(array)
    _same_bytes({"a": [array, array], "b": (array,)})


def test_repeated_arrays_hit_the_memo_like_pickle():
    """One array object several times in one artifact pickles once and
    is then memo references; equal but distinct arrays do not share."""
    a = np.arange(8.0)
    f = np.asfortranarray(np.ones((2, 3)))
    _same_bytes([a, a, np.arange(8.0), f, a, f, {"k": a}])
    _same_bytes([PhaseWork(a), PhaseWork(a), a])


@pytest.mark.parametrize("cls", [StepReport, PhaseWork, ForceResult])
def test_table_classes_keep_the_default_reduce(cls):
    """The table is only exact while these classes pickle by the
    default ``__dict__`` path: a reduce, state or slots hook of their
    own must come with a change to the table."""
    assert cls in _REDUCERS
    own = [
        name
        for klass in cls.__mro__[:-1]
        for name in ("__reduce__", "__reduce_ex__", "__getstate__",
                     "__setstate__", "__getnewargs__",
                     "__getnewargs_ex__", "__slots__")
        if name in vars(klass)
    ]
    assert own == []
