"""The sweep supervisor: the one way a sweep executes its cache misses.

:func:`supervise` turns the misses :func:`repro.runcache.sweep` found
into units of work and drives them through one submit / wait / retry
loop.  A unit is a single spec, or a homogeneous capture batch one
lockstep MD engine runs in one pass.  The loop owns submission, retries
with decorrelated-jitter backoff, quarantine, the journal records and
the ``shard`` spans; the only thing that varies is where a unit runs:

* **in-process** when ``jobs=1`` or there is a single unit, and after
  *degradation*: the pool could not start, or broke more than
  :data:`POOL_RESTART_LIMIT` times (each break halves it);
* **in a** ``ProcessPoolExecutor`` **worker** otherwise.  A worker
  publishes into the shared cache and the parent reloads the artifact;
  an artifact missing on reload is a failed attempt re-run in-process.
  Workers start warm: the parent imports what the units' executors
  import before it forks (:func:`repro.runcache.sweep.import_executors`),
  and each worker fixes glibc's allocator thresholds
  (:func:`_pin_malloc_thresholds`), so a unit costs in a worker what it
  costs in a warm process.

In-process units run through an executor that hands back completed
futures, so both placements share the same ``wait()`` loop.

Each nested physics capture is computed once per sweep.  The first
pending pool unit that needs a capture
(:func:`repro.runcache.sweep.nested_capture`, or a capture spec's own)
*claims* it.  A later unit needing the same capture, not yet in the
cache, is held back: it stays queued, with no ``submitted`` record,
until the claimant leaves ``pending`` — it finished, failed, was lost,
or was dropped with a broken pool — and a free worker takes the next
ready unit meanwhile.  Captures still run nested inside the first
dependent's ``shard``, so journals, spans and artifacts are unchanged.

Around the supervisor sit the pieces that make a sweep crash-safe:

* :class:`SweepJournal` — a per-sweep append-only JSONL journal
  (``repro.sweepjournal/1``, one ``O_APPEND`` ``os.write`` per record,
  the :mod:`repro.telemetry` idiom) recording every unit's submission,
  start, finish, failure, and quarantine, per spec digest.
  ``sweep(..., resume=dir)`` replays it: digests journaled *finished*
  and still present in the cache are served without re-execution, so
  an interrupted campaign re-runs only its tail.  A torn final line
  (the writer died mid-record) is skipped, never fatal.

* :class:`SupervisionPolicy` — per-attempt wall-clock timeouts (pool
  workers only), bounded retries, and permanent-failure quarantine: a
  poisoned spec is reported in :attr:`SweepResult.quarantined` instead
  of being retried forever or killing the sweep.  Plain ``sweep()``
  calls get :data:`PROPAGATE_POLICY`: one attempt, first error raises.

Worker deaths and lost publishes are infrastructure failures: they are
always retried and never quarantined — only exceptions raised by the
spec's own execution use up attempts or can poison it.  A batch
that fails, whatever the error (a runtime fault, or runs that cannot
share one lockstep engine), splits into single-spec units, so one bad
run cannot take its batch-mates down.
"""

from __future__ import annotations

import ctypes
import gc
import json
import multiprocessing
import os
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.runcache.key import RunSpec
from repro.telemetry import runtime as telemetry_runtime

try:
    import resource
except ImportError:  # not POSIX: shard spans carry no rusage deltas
    resource = None

JOURNAL_SCHEMA = "repro.sweepjournal/1"
JOURNAL_NAME = "sweep-journal.jsonl"


# -- the journal -------------------------------------------------------------


class SweepJournal:
    """Append-only JSONL journal of one sweep's execution lifecycle.

    Every process of the sweep (parent and pool workers) appends to
    the *same* file with one ``os.write`` to an ``O_APPEND``
    descriptor per record, so records are never torn by concurrency —
    only by the writer itself dying mid-``write``, which the loader
    tolerates by skipping undecodable lines.

    ``root=None`` is the inactive journal of an unjournaled sweep
    (:data:`NULL_JOURNAL`): it opens nothing and every call is a no-op.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self._lock = threading.Lock()
        self._fd: Optional[int] = None
        self.root: Optional[Path] = None
        self.path: Optional[Path] = None
        self.active = root is not None
        if root is None:
            return
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / JOURNAL_NAME
        self._fd = os.open(
            self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
        )

    def _write(self, kind: str, **fields_) -> None:
        if not self.active:
            return
        record = {
            "schema": JOURNAL_SCHEMA,
            "kind": kind,
            "ts": time.time(),
            "pid": os.getpid(),
        }
        record.update(fields_)
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            if self._fd is None:
                return
            os.write(self._fd, line.encode("utf-8"))

    def begin(self, entries: List[dict], *, jobs: int, resumed: bool):
        """``entries``: ``[{digest, label, spec}]`` with canonical spec
        dicts, which is what lets ``--resume`` rebuild the spec list."""
        self._write("begin", entries=entries, jobs=jobs, resumed=resumed)

    def submitted(self, digest: str, *, label: str, attempt: int):
        self._write("submitted", digest=digest, label=label, attempt=attempt)

    def started(self, digest: str, *, attempt: int):
        self._write("started", digest=digest, attempt=attempt)

    def finished(self, digest: str, *, attempt: int):
        self._write("finished", digest=digest, attempt=attempt)

    def failed(
        self, digest: str, *, attempt: int, error: str, retryable: bool
    ):
        self._write(
            "failed", digest=digest, attempt=attempt,
            error=error[:500], retryable=retryable,
        )

    def quarantined(
        self, digest: str, *, label: str, attempts: int, error: str
    ):
        self._write(
            "quarantined", digest=digest, label=label,
            attempts=attempts, error=error[:500],
        )

    def end(self, *, executed: int, quarantined: int, resumed: int):
        self._write(
            "end", executed=executed, quarantined=quarantined,
            resumed=resumed,
        )

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


#: the journal of every unjournaled sweep
NULL_JOURNAL = SweepJournal()


@dataclass
class JournalState:
    """What a journal says happened (the ``--resume`` input)."""

    #: spec entries of the most recent ``begin`` record
    entries: List[dict] = field(default_factory=list)
    #: digests with a ``finished`` record
    completed: Set[str] = field(default_factory=set)
    #: digest -> latest ``quarantined`` record
    quarantined: Dict[str, dict] = field(default_factory=dict)
    #: digest -> number of ``started`` records (re-execution counter)
    started: Dict[str, int] = field(default_factory=dict)
    #: undecodable lines skipped by the loader (torn final write)
    skipped: int = 0
    records: List[dict] = field(default_factory=list)


def load_journal(root: os.PathLike) -> Optional[JournalState]:
    """Parse a sweep journal, tolerating a torn trailing line.

    Returns None when the directory has no journal file.  A digest
    that was quarantined and *later* finished counts as completed.
    """
    path = Path(root) / JOURNAL_NAME
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    state = JournalState()
    for line in raw.decode("utf-8", errors="replace").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            kind = record["kind"]
        except (ValueError, KeyError, TypeError):
            state.skipped += 1
            continue
        state.records.append(record)
        if kind == "begin":
            state.entries = list(record.get("entries") or [])
        elif kind == "started":
            digest = record.get("digest", "")
            state.started[digest] = state.started.get(digest, 0) + 1
        elif kind == "finished":
            digest = record.get("digest", "")
            state.completed.add(digest)
            state.quarantined.pop(digest, None)
        elif kind == "quarantined":
            digest = record.get("digest", "")
            if digest not in state.completed:
                state.quarantined[digest] = record
    return state


def spec_from_canonical(doc: Dict[str, Any]) -> RunSpec:
    """Rebuild a :class:`RunSpec` from its canonical dict (the form
    journals and cache entry headers store)."""
    return RunSpec(
        kind=doc["kind"],
        workload=doc["workload"],
        steps=doc["steps"],
        seed=doc["seed"],
        threads=doc["threads"],
        machine=doc["machine"],
        params=doc["params"],
        fault_plan=doc["fault_plan"],
        affinities=doc["affinities"],
        master_affinity=doc["master_affinity"],
        options=doc["options"],
    )


def journal_specs(state: JournalState) -> List[RunSpec]:
    """The sweep's spec list, rebuilt from the ``begin`` entries."""
    return [spec_from_canonical(e["spec"]) for e in state.entries]


# -- supervision -------------------------------------------------------------


#: decorrelated-jitter backoff between retries: sleep ~ U(base, 3*prev),
#: capped, from a seeded generator
BASE_BACKOFF = 0.05
MAX_BACKOFF = 2.0
BACKOFF_SEED = 0
#: pool rebuilds (each halving the worker count) before the remaining
#: units run in-process
POOL_RESTART_LIMIT = 3


@dataclass(frozen=True)
class SupervisionPolicy:
    """How hard the sweep fights before giving up on a spec."""

    #: tries per spec that may fail in its own execution (1 = no
    #: retry); worker deaths and lost publishes do not count
    max_attempts: int = 3
    #: per-attempt wall-clock limit in seconds; None = unlimited
    timeout: Optional[float] = None
    #: True: exhausted/poisoned specs land in SweepResult.quarantined;
    #: False: the final error propagates (the historical semantics)
    quarantine: bool = True
    #: injection point for tests; production is time.sleep
    sleep: Callable[[float], None] = field(
        default=time.sleep, repr=False, compare=False
    )


#: the policy plain ``sweep()`` calls get: exactly the historical
#: behavior — no retries, first execution error propagates
PROPAGATE_POLICY = SupervisionPolicy(max_attempts=1, quarantine=False)


def retryable(exc: BaseException) -> bool:
    """Poisoned specs never retry; everything else may."""
    from repro.faults.process import retryable as _retryable

    return _retryable(exc)


class Backoff:
    """Decorrelated-jitter exponential backoff (seeded, so chaos runs
    sleep the same schedule every time)."""

    def __init__(self):
        self._rng = random.Random(BACKOFF_SEED)
        self._prev = BASE_BACKOFF

    def next(self) -> float:
        self._prev = min(
            MAX_BACKOFF, self._rng.uniform(BASE_BACKOFF, self._prev * 3)
        )
        return self._prev


@dataclass
class Quarantined:
    """One spec the sweep gave up on (reported, not retried forever)."""

    digest: str
    label: str
    attempts: int
    error: str
    #: True when carried forward from a previous (resumed) run
    carried: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


# -- the supervisor ----------------------------------------------------------


#: a batch below this size gains nothing over single runs
MIN_BATCH = 2

Miss = Tuple[str, RunSpec]


def _group_key(spec: RunSpec) -> Optional[tuple]:
    """Batch key for a spec, or None when it must run on its own."""
    if spec.fault_plan is not None or spec.kind != "capture":
        return None
    return ("capture", spec.workload, spec.steps)


def plan_units(misses: List[Miss]) -> List[List[Miss]]:
    """Group ``misses`` into units, in order of first appearance:
    capture misses of one workload and step count, varying only in
    seed and with no fault plan, form one batch once there are
    ``MIN_BATCH`` of them; every other miss is a unit of its own."""
    groups: Dict[tuple, List[Miss]] = {}
    for key, spec in misses:
        group = _group_key(spec) or ("single", key)
        groups.setdefault(group, []).append((key, spec))
    units: List[List[Miss]] = []
    for group, items in groups.items():
        if group[0] == "capture" and len(items) >= MIN_BATCH:
            units.append(items)
        else:
            units.extend([item] for item in items)
    return units


@dataclass
class Unit:
    """One unit of work: a single spec, or a homogeneous capture batch
    one lockstep engine runs in one pass (:func:`plan_units`)."""

    #: ``(digest, spec)`` pairs
    items: List[Miss]
    #: attempts submitted so far; the journal numbers each one
    attempts: int = 0
    #: attempts that failed in the spec's own execution; only these
    #: count against ``SupervisionPolicy.max_attempts``
    errors: int = 0
    #: True once a worker's publish of the unit was lost: it reruns in
    #: the parent, where the artifact comes back directly
    inline: bool = False

    @property
    def specs(self) -> List[RunSpec]:
        return [spec for _, spec in self.items]

    @property
    def label(self) -> str:
        return self.items[0][1].label()


@dataclass
class Outcome:
    """What supervising one sweep's misses produced."""

    artifacts: Dict[str, Any] = field(default_factory=dict)
    #: executed digests, in miss order
    executed: List[str] = field(default_factory=list)
    quarantined: List[Quarantined] = field(default_factory=list)
    units: int = 0
    fanout: bool = False
    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    degraded: bool = False
    ensemble_batches: int = 0
    ensemble_runs: int = 0


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _shard_attrs(specs: List[RunSpec], sweep_id, attempt: int) -> dict:
    attrs = dict(
        label=specs[0].label(), kind=specs[0].kind,
        sweep=sweep_id, attempt=attempt,
    )
    if len(specs) > 1:
        attrs["runs"] = len(specs)
    return attrs


def _begin(specs: List[RunSpec], digests: List[str], journal, attempt: int):
    """Prepare a unit and journal its start.

    The returned ``execute(cache)`` runs the unit with the cyclic
    collector paused: a unit's objects live until it returns, so
    collecting them midway only rescans them.  A collector the caller
    had disabled stays disabled.
    """
    from repro.runcache.sweep import prepare_unit

    execute = prepare_unit(specs)
    for digest in digests:
        journal.started(digest, attempt=attempt)

    def paused(cache) -> List[Any]:
        if not gc.isenabled():
            return execute(cache)
        gc.disable()
        try:
            return execute(cache)
        finally:
            gc.enable()

    return paused


@contextmanager
def _shard_span(emitter, attrs: dict):
    """The ``shard`` span around one unit's execution.  With telemetry
    on it records the unit's minor page faults (``minflt``) and system
    CPU seconds (``sys_s``): ``getrusage`` deltas of the process that
    ran it, so what a unit costs a pool worker beyond its own work
    shows in ``repro report``."""
    with emitter.span("shard", **attrs) as span:
        if span.span_id is None or resource is None:
            yield
            return
        before = resource.getrusage(resource.RUSAGE_SELF)
        try:
            yield
        finally:
            after = resource.getrusage(resource.RUSAGE_SELF)
            span.attrs.update(
                minflt=after.ru_minflt - before.ru_minflt,
                sys_s=after.ru_stime - before.ru_stime,
            )


#: ``mallopt`` parameter numbers (glibc ``<malloc.h>``)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
#: a pool worker's fixed allocator thresholds (see
#: :func:`_pin_malloc_thresholds`)
WORKER_MMAP_THRESHOLD = 32 * 2**20
WORKER_TRIM_THRESHOLD = 128 * 2**20


def _pin_malloc_thresholds() -> None:
    """Pool-worker initializer: fix glibc's mmap and trim thresholds.

    glibc serves a block above its mmap threshold with a fresh mapping
    and unmaps it on free, and gives the heap top back to the kernel
    past its trim threshold.  Both start low and only rise as large
    blocks are freed, which a warm process has long done and a freshly
    forked worker has not: there every capture maps and faults in its
    large work arrays again (~9,500 minor faults per Al-1000 capture,
    against ~20 once the thresholds are fixed).  32 MiB, the largest
    mmap threshold glibc accepts on a 64-bit host, keeps every
    per-unit block on the heap (the largest are salt's 12.8 MB Coulomb
    work block and its 5.1 MB ring buffer); a trim threshold of four
    times that keeps a freed heap top for the next unit.  Setting them
    also turns off glibc's own adjustment.

    Runs only in workers, never in the caller's process.  Without
    glibc's ``mallopt`` (another libc or platform) it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, WORKER_MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, WORKER_TRIM_THRESHOLD)


def _pool_worker(args) -> List[str]:
    """Run one unit in a pool worker, publishing into the shared
    on-disk cache; returns the digests the parent reloads.

    When the parent has a telemetry run active (``tel_root``), the
    worker joins it: it wraps the execution in a ``shard`` span parented
    to the fan-out and emits its cache hit/miss counts as sweep-labeled
    ``worker_cache_*`` counters.  Otherwise it emits nothing.  The
    ``started`` records precede the process-fault hook, so a killed
    worker leaves a started-but-never-finished trail.
    """
    from repro.runcache.store import RunCache

    (specs, digests, root, max_bytes, tel_root, sweep_id, journal_root,
     attempt) = args
    cache = RunCache(root, max_bytes=max_bytes)
    journal = SweepJournal(journal_root) if journal_root else NULL_JOURNAL
    try:
        execute = _begin(specs, digests, journal, attempt)
        if "REPRO_PROCESS_FAULTS" in os.environ:  # chaos harness only
            from repro.faults import process as process_faults

            for spec in specs:
                process_faults.worker_started(spec.label())
        if tel_root is None:
            execute(cache)
            return digests
        emitter = telemetry_runtime.activate(tel_root, parent_id=sweep_id)
        try:
            with _shard_span(
                emitter, _shard_attrs(specs, sweep_id, attempt)
            ):
                execute(cache)
            worker = str(os.getpid())
            emitter.counter(
                "worker_cache_hits", cache.session_hits,
                sweep=sweep_id, worker=worker,
            )
            emitter.counter(
                "worker_cache_misses", cache.session_misses,
                sweep=sweep_id, worker=worker,
            )
        finally:
            telemetry_runtime.deactivate()
    finally:
        journal.close()
    return digests


class _InlineExecutor:
    """In-process placement: runs a call at submit time and returns an
    already-completed future, so one ``wait()`` loop drives both
    placements."""

    def submit(self, fn, *args) -> Future:
        fut: Future = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:
            fut.set_exception(exc)
        return fut


def _kill_pool_processes(pool) -> None:
    """SIGKILL every live worker of a ProcessPoolExecutor (the only way
    to interrupt a hung task; the pool is rebuilt afterwards)."""
    import signal

    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except (OSError, AttributeError):
            pass


class _Supervisor:
    """The submit / wait / retry loop over one sweep's units."""

    def __init__(self, cache, policy: SupervisionPolicy, journal, emitter):
        self.cache = cache
        self.policy = policy
        self.journal = journal
        self.emitter = emitter
        self.out = Outcome()
        self.backoff = Backoff()
        self.sweep_id: Optional[str] = None
        self.tel_root: Optional[str] = None
        self.queue: Deque[Unit] = deque()
        #: future -> (unit, True when it runs in a pool worker)
        self.pending: Dict[Future, Tuple[Unit, bool]] = {}
        self.deadlines: Dict[Future, float] = {}
        self.timed_out: Set[Future] = set()
        self.inline = _InlineExecutor()
        #: item digest -> ``(digest, spec)`` of the capture it needs
        self.captures: Dict[str, Tuple[str, RunSpec]] = {}
        self.pool = None
        self.workers = 0
        self.restarts = 0

    # -- placement -----------------------------------------------------

    def _open_pool(self) -> None:
        try:
            # an explicit start method, not the platform default: Python
            # 3.14 moves Linux from fork to forkserver, which would
            # silently change what a pool worker inherits and costs
            self.pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_pin_malloc_thresholds,
            )
        except (OSError, PermissionError, ValueError):
            self._degrade()

    def _shutdown(self) -> None:
        try:
            self.pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # a broken pool may fail to wind down cleanly
            pass

    def _degrade(self) -> None:
        """The pool is gone for good: the remaining units run in-process."""
        self.pool = None
        self.out.degraded = True
        self.emitter.event(
            "sweep.degraded", remaining=len(self.queue),
            restarts=self.restarts,
        )

    def _rebuild(self) -> None:
        """Replace a broken pool with one half its size; past
        :data:`POOL_RESTART_LIMIT`, degrade to in-process."""
        # every sibling future of a broken pool is doomed
        for fut, (unit, pooled) in list(self.pending.items()):
            if pooled:
                del self.pending[fut]
                self.deadlines.pop(fut, None)
                self._lost(unit, self._death(fut, "pool broke while pending"))
        self.timed_out.clear()
        self._shutdown()
        self.restarts += 1
        self.out.pool_restarts += 1
        self.workers = max(1, self.workers // 2)
        self.emitter.event(
            "sweep.pool_restart", restarts=self.restarts,
            workers=self.workers,
        )
        if self.restarts > POOL_RESTART_LIMIT:
            self._degrade()
            return
        self.policy.sleep(self.backoff.next())
        self._open_pool()

    def _run_inline(self, unit: Unit, attempt: int) -> List[Any]:
        execute = _begin(
            unit.specs, [key for key, _ in unit.items], self.journal, attempt
        )
        attrs = _shard_attrs(unit.specs, self.sweep_id, attempt)
        with _shard_span(self.emitter, dict(serial=True, **attrs)):
            return execute(self.cache)

    def _needs(self, unit: Unit) -> List[Tuple[str, RunSpec]]:
        """``(digest, spec)`` of each capture the unit computes: a
        capture spec's own, else its :func:`nested_capture`."""
        from repro.runcache.sweep import nested_capture

        needs = []
        for key, spec in unit.items:
            if key not in self.captures:
                dep = nested_capture(spec)
                self.captures[key] = (
                    (key, spec) if dep is None
                    else (self.cache.digest(dep), dep)
                )
            needs.append(self.captures[key])
        return needs

    def _held(self, unit: Unit, claimed: Set[str]) -> bool:
        """A capture another pending pool unit is computing, and that
        is not stored yet, holds the unit back."""
        return any(
            digest in claimed and not self.cache.contains(dep)
            for digest, dep in self._needs(unit)
        )

    def _fill(self) -> None:
        """Submit queued units: every ready one bound for the pool,
        then at most one in-process, whose result is handled before anything
        else runs (so a propagating error stops the sweep there).

        The first pending pool unit that needs a capture *claims* it;
        later units needing it stay queued, unsubmitted, until the
        claimant leaves ``pending``, unless the capture is stored
        first.  So each capture is computed once, and a free worker
        takes the next ready unit instead."""
        claimed = {
            digest
            for unit, pooled in self.pending.values() if pooled
            for digest, _ in self._needs(unit)
        }
        i = 0
        while i < len(self.queue):
            unit = self.queue[i]
            if claimed and self._held(unit, claimed):
                i += 1
                continue
            attempt = unit.attempts + 1
            pooled = self.pool is not None and not unit.inline
            # journaled first, so no worker's start can precede it
            for key, spec in unit.items:
                self.journal.submitted(
                    key, label=spec.label(), attempt=attempt
                )
            if not pooled:
                fut = self.inline.submit(self._run_inline, unit, attempt)
            else:
                payload = (
                    unit.specs, [key for key, _ in unit.items],
                    str(self.cache.root), self.cache.max_bytes,
                    self.tel_root, self.sweep_id,
                    str(self.journal.root) if self.journal.active else None,
                    attempt,
                )
                try:
                    fut = self.pool.submit(_pool_worker, payload)
                except Exception:  # the pool broke or shut down under us
                    if not any(p for _, p in self.pending.values()):
                        self._rebuild()  # no broken future will report it
                    return
            del self.queue[i]
            unit.attempts = attempt
            self.pending[fut] = (unit, pooled)
            if not pooled:
                return
            claimed.update(digest for digest, _ in self._needs(unit))
            if self.policy.timeout is not None:
                self.deadlines[fut] = time.monotonic() + self.policy.timeout

    # -- outcomes --------------------------------------------------------

    def _journal_failed(
        self, unit: Unit, message: str, can_retry: bool
    ) -> None:
        for key, _spec in unit.items:
            self.journal.failed(
                key, attempt=unit.attempts, error=message,
                retryable=can_retry,
            )

    def _retry(self, unit: Unit, message: str) -> None:
        self.out.retries += 1
        self.emitter.event(
            "sweep.retry", digest=unit.items[0][0][:12], label=unit.label,
            attempt=unit.attempts, error=message[:200],
        )
        self.queue.append(unit)

    def _failed(self, unit: Unit, exc: Exception) -> bool:
        """An execution error; False when it must propagate."""
        message = _error_text(exc)
        can_retry = retryable(exc)
        unit.errors += 1
        self._journal_failed(unit, message, can_retry)
        if len(unit.items) > 1:
            # one bad run must not take its batch-mates down: retry
            # them one by one, each on its own remaining attempts
            self.emitter.event(
                "ensemble.error", label=unit.label, runs=len(unit.items),
                error=message[:200],
            )
            self.queue.extend(
                Unit([item], attempts=unit.attempts, errors=unit.errors)
                for item in unit.items
            )
            return True
        # the retry decision: only the spec's own errors use up attempts
        if can_retry and unit.errors < self.policy.max_attempts:
            self.policy.sleep(self.backoff.next())
            self._retry(unit, message)
            return True
        if not self.policy.quarantine:
            return False
        key, spec = unit.items[0]
        record = Quarantined(
            digest=key, label=spec.label(), attempts=unit.attempts,
            error=message,
        )
        self.out.quarantined.append(record)
        self.journal.quarantined(
            key, label=record.label, attempts=unit.attempts, error=message
        )
        self.emitter.event(
            "sweep.quarantine", digest=key[:12], label=record.label,
            attempts=unit.attempts, error=message[:200],
        )
        return True

    def _lost(self, unit: Unit, message: str) -> None:
        """An infrastructure failure — a worker death, a timeout kill, a
        lost publish — is always retried and never quarantined.  It uses
        up no attempts: each death breaks the pool, so
        :data:`POOL_RESTART_LIMIT` bounds them."""
        self._journal_failed(unit, message, True)
        self._retry(unit, message)

    def _finished(self, unit: Unit, result: List[Any], pooled: bool) -> None:
        if pooled:  # a worker returns digests: read back, uncounted
            result = [self.cache.read(key) for key, _ in unit.items]
        lost = []
        for (key, spec), artifact in zip(unit.items, result):
            if artifact is None:
                lost.append((key, spec))
                continue
            self.out.artifacts[key] = artifact
            self.journal.finished(key, attempt=unit.attempts)
        if len(unit.items) > 1:
            self.out.ensemble_batches += 1
            self.out.ensemble_runs += len(unit.items)
        if lost:
            # the worker's cache write was absorbed (e.g. ENOSPC): a
            # failed attempt, re-run in-process where the artifact
            # comes back directly
            self._lost(
                Unit(lost, unit.attempts, unit.errors, inline=True),
                "artifact missing after publish",
            )

    def _death(self, fut: Future, message: str) -> str:
        if fut in self.timed_out:
            return f"timeout after {self.policy.timeout}s (worker killed)"
        return message

    def _expire(self) -> None:
        """Kill the workers of timed-out attempts; the broken pool then
        surfaces on the next wait (one hang counts one timeout)."""
        now = time.monotonic()
        expired = [fut for fut, dl in self.deadlines.items() if now >= dl]
        for fut in expired:
            del self.deadlines[fut]
            self.timed_out.add(fut)
            self.out.timeouts += 1
            unit = self.pending[fut][0]
            self.emitter.event(
                "sweep.timeout", digest=unit.items[0][0][:12],
                label=unit.label, attempt=unit.attempts,
                timeout=self.policy.timeout,
            )
        if expired:
            _kill_pool_processes(self.pool)

    # -- the loop ----------------------------------------------------------

    def run(self, units: List[Unit], workers: int = 0) -> None:
        self.queue.extend(units)
        if workers:
            self.workers = workers
            self._open_pool()
        try:
            while self.queue or self.pending:
                self._fill()
                if not self.pending:
                    continue
                timeout = None
                if self.deadlines:
                    timeout = max(
                        0.0, min(self.deadlines.values()) - time.monotonic()
                    )
                done, _ = wait(
                    set(self.pending), timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    self._expire()
                    continue
                broken = False
                for fut in done:
                    unit, pooled = self.pending.pop(fut)
                    self.deadlines.pop(fut, None)
                    try:
                        result = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        self._lost(unit, self._death(
                            fut, "worker process died before completing"
                        ))
                    except Exception as exc:
                        if not self._failed(unit, exc):
                            raise
                    else:
                        self._finished(unit, result, pooled)
                if broken:
                    self._rebuild()
        finally:
            if self.pool is not None:
                self._shutdown()


def supervise(
    misses: List[Miss],
    cache,
    jobs: int,
    *,
    policy: SupervisionPolicy,
    journal,
    emitter,
) -> Outcome:
    """Execute a sweep's cache misses; the one way a sweep runs work.

    Misses group into units (:func:`plan_units`),
    ordered longest first: stably, by descending ``threads * steps`` of
    their specs, an input property a replay's cost grows with (a
    capture has ``threads = 0`` and keeps its place among captures).
    The order decides which unit claims a nested capture and what the
    journal's ``submitted`` records follow; ``executed`` stays in miss
    order.  The units run in-process when ``jobs`` is 1 or there is
    only one unit; otherwise under a ``fanout`` span across a
    ``ProcessPoolExecutor`` of ``min(jobs, units)`` workers that
    publish into the shared store, degrading to in-process when the
    pool cannot start or breaks too often.  With a telemetry run active
    the workers emit into it; otherwise they emit nothing.
    """
    # longest first: a replay's cost grows with threads x steps, so the
    # grid's biggest cells start while others fill the remaining
    # workers, instead of the last one running alone (stable: ties and
    # captures keep miss order)
    units = sorted(
        (Unit(items) for items in plan_units(misses)),
        key=lambda unit: -max(s.threads * s.steps for s in unit.specs),
    )
    sup = _Supervisor(cache, policy, journal, emitter)
    sup.out.units = len(units)
    workers = min(jobs, len(units))
    if workers < 2:
        sup.run(units)
    else:
        from repro.runcache.sweep import import_executors

        # once per process, not once per worker per sweep
        import_executors({spec.kind for _, spec in misses})
        if telemetry_runtime.active():
            sup.tel_root = str(emitter.run.root)
        with emitter.span(
            "fanout", n_misses=len(misses), jobs=workers
        ) as fanout_span:
            sup.sweep_id = fanout_span.span_id
            sup.run(units, workers)
        sup.out.fanout = True
    sup.out.executed = [
        key for key, _ in misses if key in sup.out.artifacts
    ]
    return sup.out
