"""Real-thread synchronization: the countdown latch.

It mirrors ``java.util.concurrent.CountDownLatch`` closely enough for
the MW parallelization pattern:
"When the thread finishes its work, it decrements a countdown latch so
the program knows when all work in the phase is complete."
"""

from __future__ import annotations

import threading
from typing import Optional


class CountDownLatch:
    """One-shot latch: ``await_()`` blocks until ``count_down()`` has been
    called ``count`` times."""

    def __init__(self, count: int):
        if count < 0:
            raise ValueError(f"negative latch count: {count}")
        self._count = count
        self._cond = threading.Condition()

    @property
    def count(self) -> int:
        with self._cond:
            return self._count

    def count_down(self) -> None:
        """Decrement; releases all waiters when the count reaches zero.
        Extra count-downs after zero are ignored (Java semantics)."""
        with self._cond:
            if self._count > 0:
                self._count -= 1
                if self._count == 0:
                    self._cond.notify_all()

    def await_(self, timeout: Optional[float] = None) -> bool:
        """Block until the count reaches zero; returns False on timeout."""
        with self._cond:
            if self._count == 0:
                return True
            return self._cond.wait_for(lambda: self._count == 0, timeout)
