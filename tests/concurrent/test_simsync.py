"""Tests for the simulated-time latch."""

import pytest

from repro.concurrent import SimCountDownLatch
from repro.des import Simulator, Timeout


def test_latch_releases_at_zero():
    sim = Simulator()
    latch = SimCountDownLatch(sim, 3)
    released = []

    def waiter():
        value = yield latch
        released.append((sim.now, value))

    def worker(delay):
        yield Timeout(delay)
        latch.count_down()

    sim.spawn(waiter())
    for d in (1.0, 3.0, 2.0):
        sim.spawn(worker(d))
    sim.run()
    assert released == [(3.0, 3.0)]
    assert latch.count == 0


def test_latch_zero_count_open_immediately():
    sim = Simulator()
    latch = SimCountDownLatch(sim, 0)
    released = []

    def waiter():
        yield latch
        released.append(sim.now)

    sim.spawn(waiter())
    sim.run()
    assert released == [0.0]


def test_latch_skew_measurement():
    sim = Simulator()
    latch = SimCountDownLatch(sim, 2)

    def worker(delay):
        yield Timeout(delay)
        latch.count_down()

    def waiter():
        yield latch

    sim.spawn(waiter())
    sim.spawn(worker(1.0))
    sim.spawn(worker(4.5))
    sim.run()
    assert latch.skew == pytest.approx(3.5)
    assert latch.arrival_times == [1.0, 4.5]


def test_latch_negative_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        SimCountDownLatch(sim, -2)
