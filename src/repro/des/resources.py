"""Shared-resource primitives for DES processes: locks, semaphores, stores.

All primitives grant strictly in FIFO order, which keeps simulations
deterministic and models the fair queueing of ``java.util.concurrent``
structures closely enough for the paper's contention experiments.
"""

from __future__ import annotations

from collections import deque

from repro.des.errors import DesError


class Semaphore:
    """Counting semaphore with FIFO grant order.

    ``yield sem.acquire()`` suspends until a permit is available;
    ``sem.release()`` is immediate (no yield).  Statistics on waiting are
    kept so experiments can quantify contention:

    ``wait_count``   number of acquires that had to queue,
    ``wait_time``    total simulated time spent queued,
    ``hold_time``    total time permits were held.
    """

    def __init__(self, sim, permits: int = 1, name: str = ""):
        if permits < 1:
            raise ValueError(f"permits must be >= 1, got {permits}")
        self.sim = sim
        self.name = name
        self._permits = permits
        self._available = permits
        self._queue: deque = deque()
        self._acquired_at: dict = {}
        #: id(process) -> process for current permit holders; feeds the
        #: wait-for-graph deadlock diagnosis (who holds what)
        self._holders: dict = {}
        self.wait_count = 0
        self.wait_time = 0.0
        self.hold_time = 0.0
        self.acquire_count = 0
        # request objects are stateless handles on this semaphore, so
        # every acquire() can hand out the same one (hot-path allocation)
        self._acquire_req = _AcquireRequest(self)

    @property
    def available(self) -> int:
        """Permits currently free."""
        return self._available

    def acquire(self) -> "_AcquireRequest":
        """Return a request object to ``yield``."""
        return self._acquire_req

    def owners(self) -> list:
        """Processes currently holding a permit (live ones only)."""
        return [p for p in self._holders.values() if p.alive]

    def waiters(self) -> list:
        """Processes currently queued for a permit (live ones only)."""
        return [p for p, _t in self._queue if p.alive]

    def release(self, holder=None) -> None:
        """Return one permit; wakes the head of the wait queue, if any."""
        key = holder if holder is not None else None
        if key is not None:
            start = self._acquired_at.pop(id(key), None)
            self._holders.pop(id(key), None)
        else:
            start = None
            if len(self._holders) == 1:
                # anonymous release of a mutex: the sole holder lets go
                only = next(iter(self._holders))
                self._acquired_at.pop(only, None)
                self._holders.pop(only, None)
        if start is not None:
            self.hold_time += self.sim.now - start
        if self.sim._firehose:
            self.sim.emit("lock.release", self.name)
        while self._queue:
            proc, enqueued_at = self._queue.popleft()
            if not proc.alive:
                continue  # interrupted while waiting; skip
            self.wait_time += self.sim.now - enqueued_at
            self.acquire_count += 1
            self._acquired_at[id(proc)] = self.sim.now
            self._holders[id(proc)] = proc
            if self.sim._firehose:
                self.sim.emit(
                    "lock.acquire", self.name,
                    ("process", proc.name),
                    ("waited", self.sim.now - enqueued_at),
                )
            self.sim._schedule(0.0, proc._resume, self)
            return
        self._available += 1
        if self._available > self._permits:
            raise DesError(f"semaphore {self.name!r} over-released")

    def reap_dead_holders(self) -> int:
        """Release permits held by processes that died without releasing.

        An interrupt can land at the ``yield sem.acquire()`` suspension
        point after the grant made the process a holder but before its
        body entered a ``try``/``finally`` — the permit would die with
        the process and wedge every later acquirer.  Returns the number
        of permits reclaimed; a watchdog calls this periodically.
        """
        dead = [p for p in self._holders.values() if not p.alive]
        for proc in dead:
            self.release(holder=proc)
        return len(dead)

    def _try_grant(self, process) -> bool:
        if self._available > 0:
            self._available -= 1
            self.acquire_count += 1
            self._acquired_at[id(process)] = self.sim.now
            self._holders[id(process)] = process
            return True
        return False


class _AcquireRequest:
    __slots__ = ("sem",)

    def __init__(self, sem: Semaphore):
        self.sem = sem

    def _subscribe(self, sim, process) -> None:
        sem = self.sem
        if sem._try_grant(process):
            if sim._firehose:
                sim.emit(
                    "lock.acquire", sem.name,
                    ("process", process.name), ("waited", 0.0),
                )
            sim._schedule(0.0, process._resume, sem)
        else:
            if sim._firehose:
                sim.emit(
                    "lock.request", sem.name, ("process", process.name)
                )
            sem.wait_count += 1
            sem._queue.append((process, sim.now))


class Lock(Semaphore):
    """A mutex: a one-permit semaphore.

    ``release(holder)`` should pass the owning process so hold times are
    attributed; for brevity ``release()`` without a holder is accepted.
    """

    def __init__(self, sim, name: str = ""):
        super().__init__(sim, permits=1, name=name)

    @property
    def locked(self) -> bool:
        return self._available == 0


class FifoStore:
    """Unbounded FIFO queue of items with blocking ``get``.

    This is the work-queue primitive: producers ``put`` (non-blocking),
    consumers ``yield store.get()``.  Grant order across blocked
    consumers is FIFO.  ``close()`` causes current and future getters to
    receive ``None`` — a simple shutdown sentinel protocol.
    """

    def __init__(self, sim, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: deque = deque()
        self._getters: deque = deque()
        self._closed = False
        self.put_count = 0
        self.get_count = 0
        self.max_depth = 0
        # like Semaphore.acquire: one stateless request serves every get()
        self._get_req = _GetRequest(self)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item) -> None:
        """Enqueue an item, waking one blocked getter if present."""
        if self._closed:
            raise DesError(f"put on closed store {self.name!r}")
        self.put_count += 1
        while self._getters:
            proc = self._getters.popleft()
            if not proc.alive:
                continue
            self.get_count += 1
            self.sim._schedule(0.0, proc._resume, item)
            return
        items = self._items
        items.append(item)
        if len(items) > self.max_depth:
            self.max_depth = len(items)

    def get(self) -> "_GetRequest":
        """Return a request to ``yield``; resolves to an item or None if
        the store is closed and drained."""
        return self._get_req

    def try_get(self):
        """Non-blocking pop: returns an item, or None if empty."""
        if self._items:
            self.get_count += 1
            return self._items.popleft()
        return None

    def close(self) -> None:
        """Mark the store closed; blocked getters resolve to ``None``."""
        self._closed = True
        while self._getters:
            proc = self._getters.popleft()
            if proc.alive:
                self.sim._schedule(0.0, proc._resume, None)


class _GetRequest:
    __slots__ = ("store",)

    def __init__(self, store: FifoStore):
        self.store = store

    def _subscribe(self, sim, process) -> None:
        store = self.store
        if store._items:
            store.get_count += 1
            sim._schedule(0.0, process._resume, store._items.popleft())
        elif store._closed:
            sim._schedule(0.0, process._resume, None)
        else:
            store._getters.append(process)
