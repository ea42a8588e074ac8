"""Timer lifecycle tests: cancellation, tombstones, and compaction.

Cancelled timers leave tombstone entries in the event heap that must be
(a) skipped without advancing simulated time, (b) compacted wholesale
once they dominate the heap, and (c) invisible to every observable
output — the hypothesis property at the bottom replays random
arm/cancel schedules with compaction forced on and fully disabled and
requires identical firing logs, clocks, and event counts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import SimulationDeadlock, Simulator, Timeout


def test_timer_fires_with_value():
    sim = Simulator()
    log = []
    sim.timer(5.0, log.append, "ping")
    sim.run()
    assert log == ["ping"]
    assert sim.now == 5.0


def test_cancelled_timer_does_not_advance_time():
    sim = Simulator()
    log = []
    handle = sim.timer(1000.0, log.append, "never")
    handle.cancel()
    sim.run()
    # the tombstone is drained without running the callback, and the
    # clock does not travel to the dead timer's expiry horizon
    assert log == []
    assert sim.now == 0.0
    assert sim.event_count == 0
    assert sim._heap == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.timer(1.0, lambda v: None)
    handle.cancel()
    once = sim._tombstones
    handle.cancel()
    assert sim._tombstones == once == 1


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    log = []
    handle = sim.timer(1.0, log.append, "x")
    sim.run()
    assert log == ["x"]
    handle.cancel()  # entry already consumed: no phantom tombstone
    assert sim._tombstones == 0


def test_call_at_in_the_past_rejected():
    sim = Simulator()

    def advance():
        yield Timeout(5.0)

    sim.spawn(advance())
    sim.run()
    assert sim.now == 5.0
    with pytest.raises(ValueError, match="past"):
        sim.call_at(1.0, lambda v: None)


def test_negative_timer_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError, match="negative"):
        sim.timer(-0.5, lambda v: None)


def test_peek_skips_tombstones_without_advancing_now():
    sim = Simulator()
    early = sim.timer(1.0, lambda v: None)
    sim.timer(2.0, lambda v: None)
    early.cancel()
    assert sim.peek() == 2.0
    # the tombstone at the head was discarded as a documented side
    # effect; the live entry stays put and the clock never moved
    assert len(sim._heap) == 1
    assert sim.now == 0.0


def test_step_skips_tombstones():
    sim = Simulator()
    log = []
    dead = sim.timer(1.0, log.append, "dead")
    sim.timer(2.0, log.append, "live")
    dead.cancel()
    assert sim.step() is True
    assert log == ["live"]
    assert sim.now == 2.0
    assert sim.step() is False


def test_compaction_purges_tombstones_and_preserves_survivors():
    sim = Simulator()
    sim.COMPACT_MIN_TOMBSTONES = 8  # shrink the threshold for the test
    log = []
    doomed = [sim.timer(float(i + 1), log.append, i) for i in range(20)]
    survivors_due = [100.0, 200.0]
    for due in survivors_due:
        sim.timer(due, log.append, due)
    for h in doomed:
        h.cancel()
    # cancelling 20 of 22 entries crossed the fraction threshold at
    # least once; any stragglers below the threshold drain lazily
    assert sim.compactions >= 1
    assert sim._tombstones < sim.COMPACT_MIN_TOMBSTONES
    assert len(sim._heap) < len(doomed) + len(survivors_due)
    sim.run()
    assert log == survivors_due
    assert sim.now == 200.0
    assert sim._heap == []


def test_compaction_never_fires_below_min_tombstones():
    sim = Simulator()
    handles = [sim.timer(float(i + 1), lambda v: None) for i in range(10)]
    for h in handles:
        h.cancel()
    # default COMPACT_MIN_TOMBSTONES (64) far exceeds 10 tombstones:
    # they drain lazily at the heap head instead
    assert sim.compactions == 0
    sim.run()
    assert sim._heap == []


def _replay(delays, cancels, *, compact: bool):
    """Arm ``delays[i]`` as timer i, cancel per ``cancels`` (timer
    index, cancel time), run to completion; returns every observable."""
    sim = Simulator()
    if compact:
        # compact on every cancellation
        sim.COMPACT_MIN_TOMBSTONES = 1
        sim.COMPACT_FRACTION = 0.0
    else:
        sim.COMPACT_MIN_TOMBSTONES = 10**9  # never compact
    log = []
    timers = [
        sim.timer(d, (lambda i: lambda v: log.append((sim.now, i, v)))(i), i)
        for i, d in enumerate(delays)
    ]
    for index, when in cancels:
        sim.call_at(when, lambda _v, index=index: timers[index].cancel())
    sim.run()
    if compact:
        assert sim._tombstones == 0
    return log, sim.now, sim.event_count, len(sim._heap)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compaction_is_observably_transparent(data):
    """Random arm/cancel schedules: forcing compaction on every cancel
    and disabling it entirely must be byte-identical in firing order,
    fired values, final clock, and event count."""
    n = data.draw(st.integers(min_value=1, max_value=30))
    delays = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n,
        )
    )
    cancels = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
            ),
            max_size=n,
        )
    )
    assert _replay(delays, cancels, compact=True) == _replay(
        delays, cancels, compact=False
    )
