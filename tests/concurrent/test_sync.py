"""Tests for the real-thread CountDownLatch."""

import threading
import time

import pytest

from repro.concurrent import CountDownLatch


def test_latch_basic():
    latch = CountDownLatch(3)
    assert latch.count == 3
    latch.count_down()
    latch.count_down()
    assert latch.count == 1
    assert latch.await_(timeout=0.01) is False
    latch.count_down()
    assert latch.count == 0
    assert latch.await_(timeout=0.01) is True


def test_latch_extra_countdown_ignored():
    latch = CountDownLatch(1)
    latch.count_down()
    latch.count_down()  # no error, stays at zero
    assert latch.count == 0


def test_latch_zero_is_open():
    latch = CountDownLatch(0)
    assert latch.await_(timeout=0.01) is True


def test_latch_negative_rejected():
    with pytest.raises(ValueError):
        CountDownLatch(-1)


def test_latch_releases_blocked_threads():
    latch = CountDownLatch(2)
    released = []

    def waiter():
        latch.await_()
        released.append(threading.current_thread().name)

    threads = [threading.Thread(target=waiter) for _ in range(3)]
    for t in threads:
        t.start()
    time.sleep(0.02)
    assert released == []
    latch.count_down()
    latch.count_down()
    for t in threads:
        t.join(timeout=2.0)
    assert len(released) == 3
