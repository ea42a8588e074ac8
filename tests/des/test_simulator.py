"""Unit tests for the DES kernel event loop and processes."""

import pytest

from repro.des import (
    Event,
    Interrupted,
    SimulationDeadlock,
    Simulator,
    Timeout,
)


def test_timeout_ordering():
    sim = Simulator()
    log = []

    def worker(name, delay):
        yield Timeout(delay)
        log.append((sim.now, name))

    sim.spawn(worker("late", 5.0))
    sim.spawn(worker("early", 1.0))
    sim.spawn(worker("mid", 3.0))
    sim.run()
    assert log == [(1.0, "early"), (3.0, "mid"), (5.0, "late")]


def test_simultaneous_events_fifo():
    """Events at the same time run in scheduling order (determinism)."""
    sim = Simulator()
    log = []

    def worker(i):
        yield Timeout(1.0)
        log.append(i)

    for i in range(10):
        sim.spawn(worker(i))
    sim.run()
    assert log == list(range(10))


def test_timeout_value_passthrough():
    sim = Simulator()
    seen = []

    def worker():
        got = yield Timeout(1.0, value="payload")
        seen.append(got)

    sim.spawn(worker())
    sim.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    with pytest.raises(ValueError):
        Timeout(-1.0)


def test_run_until_bound():
    sim = Simulator()
    log = []

    def worker():
        for _ in range(10):
            yield Timeout(1.0)
            log.append(sim.now)

    sim.spawn(worker())
    end = sim.run(until=3.5)
    assert end == 3.5
    assert log == [1.0, 2.0, 3.0]
    # Continue to completion afterwards.
    sim.run(until=100.0)
    assert len(log) == 10


def test_run_until_raises_deadlock_when_queue_drains_early():
    """Regression: a bounded run used to return silently when the heap
    drained before ``until`` even though a blocked non-daemon process
    could never be woken again — masking lost-wakeup bugs whenever the
    caller supplied a time bound."""
    sim = Simulator()
    evt = Event("never-fired")

    def blocked():
        yield evt

    def brief():
        yield Timeout(1.0)

    sim.spawn(blocked(), name="blocked-proc")
    sim.spawn(brief(), name="brief-proc")
    # the queue fully drains at t=1.0, far before the bound: nothing
    # can ever wake blocked-proc, so this is a deadlock, bound or not
    with pytest.raises(SimulationDeadlock) as exc_info:
        sim.run(until=50.0)
    msg = str(exc_info.value)
    assert "blocked-proc" in msg
    assert "brief-proc" not in msg  # it terminated; only the stuck one


def test_run_until_with_future_work_pending_does_not_raise():
    """The bound stopping short of pending events is NOT a deadlock:
    the blocked process still has a wakeup sitting in the heap."""
    sim = Simulator()

    def sleeper():
        yield Timeout(100.0)

    sim.spawn(sleeper(), name="sleeper")
    assert sim.run(until=5.0) == 5.0
    assert sim.run() == 100.0  # resumes and completes cleanly


def test_process_return_value_via_join():
    sim = Simulator()
    results = []

    def child():
        yield Timeout(2.0)
        return 42

    def parent():
        proc = sim.spawn(child(), name="child")
        value = yield proc
        results.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert results == [(2.0, 42)]


def test_join_already_terminated_process():
    sim = Simulator()
    results = []

    def child():
        return "done"
        yield  # pragma: no cover

    def parent():
        proc = sim.spawn(child())
        yield Timeout(5.0)
        value = yield proc  # joined long after termination
        results.append(value)

    sim.spawn(parent())
    sim.run()
    assert results == ["done"]


def test_event_fire_wakes_all_waiters():
    sim = Simulator()
    evt = Event("go")
    woke = []

    def waiter(i):
        value = yield evt
        woke.append((sim.now, i, value))

    def firer():
        yield Timeout(3.0)
        evt.fire("green", sim=sim)

    for i in range(3):
        sim.spawn(waiter(i))
    sim.spawn(firer())
    sim.run()
    assert woke == [(3.0, 0, "green"), (3.0, 1, "green"), (3.0, 2, "green")]


def test_event_wait_after_fire_resolves_immediately():
    sim = Simulator()
    evt = Event()
    seen = []

    def firer():
        yield Timeout(1.0)
        evt.fire(7, sim=sim)

    def late_waiter():
        yield Timeout(2.0)
        value = yield evt
        seen.append((sim.now, value))

    sim.spawn(firer())
    sim.spawn(late_waiter())
    sim.run()
    assert seen == [(2.0, 7)]


def test_event_double_fire_raises():
    sim = Simulator()
    evt = Event("once")
    evt.fire(sim=sim)
    with pytest.raises(Exception):
        evt.fire(sim=sim)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    evt = Event()
    caught = []

    def waiter():
        try:
            yield evt
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield Timeout(1.0)
        evt.fail(RuntimeError("boom"), sim=sim)

    sim.spawn(waiter())
    sim.spawn(failer())
    sim.run()
    assert caught == ["boom"]


def test_interrupt_blocked_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield Timeout(100.0)
            log.append("woke")
        except Interrupted as exc:
            log.append(("interrupted", exc.cause, sim.now))

    def killer(target):
        yield Timeout(2.0)
        target.interrupt("deadline")

    target = sim.spawn(sleeper())
    sim.spawn(killer(target))
    sim.run(until=200.0)
    assert log == [("interrupted", "deadline", 2.0)]


def test_deadlock_detection():
    sim = Simulator()
    evt = Event("never")

    def stuck():
        yield evt

    sim.spawn(stuck(), name="stuck-proc")
    with pytest.raises(SimulationDeadlock) as exc_info:
        sim.run()
    assert "stuck-proc" in str(exc_info.value)


def test_deadlock_message_renders_wait_for_cycle():
    from repro.des import Lock

    sim = Simulator()
    l1 = Lock(sim, name="l1")
    l2 = Lock(sim, name="l2")

    def grabber(first, second, delay):
        yield first.acquire()
        yield Timeout(delay)
        yield second.acquire()

    # classic lock-order inversion: a holds l1 and wants l2, b holds l2
    # and wants l1
    sim.spawn(grabber(l1, l2, 1.0), name="a")
    sim.spawn(grabber(l2, l1, 1.0), name="b")
    with pytest.raises(SimulationDeadlock) as exc_info:
        sim.run()
    msg = str(exc_info.value)
    assert "wait-for cycle:" in msg
    assert "a -waits-on-> lock 'l2' -held-by-> b" in msg
    assert "b -waits-on-> lock 'l1' -held-by-> a" in msg
    # the per-process report names what each one is stuck on
    assert "a (waiting on lock 'l2')" in msg
    assert "b (waiting on lock 'l1')" in msg
    assert exc_info.value.cycle is not None


def test_yield_garbage_raises():
    sim = Simulator()

    def bad():
        yield 12345

    sim.spawn(bad())
    with pytest.raises(Exception):
        sim.run()


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)


def test_call_at_absolute_time():
    sim = Simulator()
    hits = []
    sim.call_at(5.0, hits.append)
    sim.run()
    assert hits == [None]
    with pytest.raises(ValueError):
        sim.call_at(1.0, hits.append)  # in the past now


def test_peek_and_step():
    sim = Simulator()

    def worker():
        yield Timeout(2.0)

    sim.spawn(worker())
    assert sim.peek() == 0.0  # initial resume event
    assert sim.step() is True  # runs the resume, schedules the timeout
    assert sim.peek() == 2.0
    while sim.step():
        pass
    assert sim.peek() is None


def test_spawn_inside_process():
    sim = Simulator()
    log = []

    def child(i):
        yield Timeout(1.0)
        log.append(i)

    def parent():
        for i in range(3):
            sim.spawn(child(i))
            yield Timeout(0.5)

    sim.spawn(parent())
    sim.run()
    assert sorted(log) == [0, 1, 2]


def test_event_count_increments():
    sim = Simulator()

    def worker():
        yield Timeout(1.0)
        yield Timeout(1.0)

    sim.spawn(worker())
    sim.run()
    assert sim.event_count >= 3


def test_daemon_processes_exempt_from_deadlock():
    sim = Simulator()
    evt = Event("never")

    def daemon_loop():
        yield evt  # waits forever

    def worker():
        yield Timeout(1.0)

    sim.spawn(daemon_loop(), name="daemon", daemon=True)
    sim.spawn(worker(), name="worker")
    # no SimulationDeadlock: the daemon is expected to wait forever
    assert sim.run() == 1.0


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def quick():
        return 1
        yield  # pragma: no cover

    proc = sim.spawn(quick())
    sim.run()
    proc.interrupt("too late")  # no error
    sim.run()
    assert not proc.alive
