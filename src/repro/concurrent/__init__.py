"""A ``java.util.concurrent`` analog with two interchangeable backends.

The paper parallelized Molecular Workbench with fixed-size thread pools
managed by Java ``ExecutorService`` objects, work queues (single shared
or one per thread) and ``CountDownLatch`` completion tracking: every
phase closes on a latch.  This package reproduces those structures
twice:

* :mod:`~repro.concurrent.executor` / :mod:`~repro.concurrent.sync` —
  **real** Python ``threading`` implementations.  Used to exercise the
  decomposition for *correctness* (parallel results must equal serial);
  on a GIL interpreter they cannot show speedup, which is exactly the
  limitation the repro brief anticipates.
* :mod:`~repro.concurrent.simexec` / :mod:`~repro.concurrent.simsync` —
  implementations that run on the :class:`~repro.machine.SimMachine`,
  where queue contention, latch waits and skew, thread parking and
  wake-up migration all happen in simulated time.  Used for every
  *performance* experiment.
"""

from repro.concurrent.executor import (
    ExecutorService,
    Future,
    new_fixed_thread_pool,
    QueueMode,
)
from repro.concurrent.simexec import (
    ASSIGN_POLICIES,
    Instrumentation,
    SimExecutorService,
    SimFuture,
    SimTask,
)
from repro.concurrent.simsync import SimCountDownLatch
from repro.concurrent.stealing import (
    STEAL_POLICIES,
    StealableDeque,
    StealingExecutorService,
)
from repro.concurrent.sync import CountDownLatch

__all__ = [
    "ASSIGN_POLICIES",
    "CountDownLatch",
    "ExecutorService",
    "Future",
    "Instrumentation",
    "QueueMode",
    "STEAL_POLICIES",
    "SimCountDownLatch",
    "SimExecutorService",
    "SimFuture",
    "SimTask",
    "StealableDeque",
    "StealingExecutorService",
    "new_fixed_thread_pool",
]
