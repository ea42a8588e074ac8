"""Critical-path tests: span-graph extraction.

``critical_path`` is checked on a synthetic two-phase span graph and on
a real Al-1000 replay, where the work-span identities must hold: span
≤ achieved time, T₁/span ≥ achieved speedup, and the chain's phase
shares sum to one.  ``tests/obs/test_critical_path_oracle.py`` holds it
bit-exact to the generic Kahn-order longest path.
"""

import pytest

from repro.obs import CriticalPath, critical_path
from repro.obs.tracer import PhaseWindow


# -- critical_path on a synthetic span graph -------------------------------


def synthetic_graph():
    """Two phase windows over a [0, 10] run with a serial spine.

    serial [0,1] → predict{2 tasks: 3s, 1s} → serial [5,6] →
    forces{2 tasks: 2s, 2s} → serial [9,10]
    """
    w1 = PhaseWindow(name="predict", step=0, begin=1.0, end=5.0)
    w2 = PhaseWindow(name="forces", step=0, begin=6.0, end=9.0)
    window_exec = [
        (w1, [("t1", 3.0), ("t2", 1.0)]),
        (w2, [("t3", 2.0), ("t4", 2.0)]),
    ]
    serial = [(0.0, 1.0), (5.0, 6.0), (9.0, 10.0)]
    return window_exec, serial, 10.0


def test_span_graph_longest_chain():
    cp = critical_path(*synthetic_graph())
    assert isinstance(cp, CriticalPath)
    # 1s serial + 3s heaviest predict task + 1s serial + 2s forces + 1s
    assert cp.seconds == pytest.approx(8.0)
    assert cp.chain == [
        "serial/0", "predict/0/t1", "serial/1", "forces/0/t3", "serial/2",
    ]
    # total work = 3s serial + (3+1) predict + (2+2) forces
    assert cp.total_work_seconds == pytest.approx(11.0)
    assert cp.parallelism == pytest.approx(11.0 / 8.0)


def test_phase_share_sums_to_one():
    cp = critical_path(*synthetic_graph())
    share = cp.phase_share()
    assert sum(share.values()) == pytest.approx(1.0)
    assert share["serial"] == pytest.approx(3.0 / 8.0)
    assert share["predict"] == pytest.approx(3.0 / 8.0)
    assert share["forces"] == pytest.approx(2.0 / 8.0)


def test_empty_window_falls_through_serially():
    w = PhaseWindow(name="predict", step=0, begin=1.0, end=2.0)
    cp = critical_path([(w, [])], [(0.0, 1.0), (2.0, 3.0)], 3.0)
    assert cp.seconds == pytest.approx(2.0)
    assert cp.chain == ["serial/0", "serial/1"]


# -- work-span identities on a real replay ---------------------------------


@pytest.fixture(scope="module")
def al1000_attr():
    from tests.obs._attribute import attribute

    return attribute("al1000", 4, steps=3)


def test_span_bounds_real_run(al1000_attr):
    res = al1000_attr
    cp = res.critical_path
    # the span can never exceed the achieved schedule length
    assert 0.0 < cp.seconds <= res.achieved_seconds * (1 + 1e-9)
    # T1 / span is an upper bound on any achievable speedup
    assert res.speedup_bound() >= res.achieved_speedup - 1e-9
    assert sum(cp.phase_share().values()) == pytest.approx(1.0)
    assert cp.parallelism >= 1.0
