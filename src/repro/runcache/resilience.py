"""The sweep supervisor: the one way a sweep executes its cache misses.

:func:`supervise` turns the misses :func:`repro.runcache.sweep` found
into units of work and drives them through one submit / wait / retry
loop.  A unit is a single spec, or a homogeneous capture batch the
ensemble engine runs in one pass.  The loop owns submission, retries
with decorrelated-jitter backoff, quarantine, the journal records and
the ``shard`` spans; the only thing that varies is where a unit runs:

* **in-process** when there is no cache, ``jobs=1`` or a single unit,
  and after *degradation*: the pool could not start, or broke more
  than ``pool_restart_limit`` times (each break halves it);
* **in a** ``ProcessPoolExecutor`` **worker** otherwise.  A worker
  publishes into the shared cache and the parent reloads the artifact;
  an artifact missing on reload is a failed attempt re-run in-process.

In-process units run through an executor that hands back completed
futures, so both placements share the same ``wait()`` loop.

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
that fails splits into single-spec units, so one bad run cannot take
its batch-mates down.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.runcache.key import RunSpec
from repro.telemetry import runtime as telemetry_runtime
from repro.telemetry.emit import new_trace_id
from repro.telemetry.merge import load_records, worker_cache_counts

JOURNAL_SCHEMA = "repro.sweepjournal/1"
JOURNAL_NAME = "sweep-journal.jsonl"

#: journal record kinds, in lifecycle order
JOURNAL_KINDS = (
    "begin", "submitted", "started", "finished", "failed",
    "quarantined", "end",
)


# -- the journal -------------------------------------------------------------


class SweepJournal:
    """Append-only JSONL journal of one sweep's execution lifecycle.

    Every process of the sweep (parent and pool workers) appends to
    the *same* file with one ``os.write`` to an ``O_APPEND``
    descriptor per record, so records are never torn by concurrency —
    only by the writer itself dying mid-``write``, which the loader
    tolerates by skipping undecodable lines.
    """

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / JOURNAL_NAME
        self._fd: Optional[int] = os.open(
            self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
        )
        self._lock = threading.Lock()

    active = True

    def _write(self, kind: str, **fields_) -> None:
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


class NullJournal:
    """Journal sink for unjournaled sweeps: every call is a no-op."""

    root = None
    path = None
    active = False

    def begin(self, entries, *, jobs, resumed):
        pass

    def submitted(self, digest, *, label, attempt):
        pass

    def started(self, digest, *, attempt):
        pass

    def finished(self, digest, *, attempt):
        pass

    def failed(self, digest, *, attempt, error, retryable):
        pass

    def quarantined(self, digest, *, label, attempts, error):
        pass

    def end(self, *, executed, quarantined, resumed):
        pass

    def close(self):
        pass


NULL_JOURNAL = NullJournal()


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
    journals and cache meta files store)."""
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


@dataclass(frozen=True)
class SupervisionPolicy:
    """How hard the sweep fights before giving up on a spec."""

    #: tries per spec that may fail in its own execution (1 = no
    #: retry); worker deaths and lost publishes do not count
    max_attempts: int = 3
    #: per-attempt wall-clock limit in seconds; None = unlimited
    timeout: Optional[float] = None
    #: decorrelated-jitter backoff: sleep ~ U(base, 3*prev), capped
    base_backoff: float = 0.05
    max_backoff: float = 2.0
    backoff_seed: int = 0
    #: pool rebuilds (each halving the worker count) before the
    #: remaining units run in-process
    pool_restart_limit: int = 3
    #: True: exhausted/poisoned specs land in SweepResult.quarantined;
    #: False: the final error propagates (the historical semantics)
    quarantine: bool = True
    #: on resume, re-attempt previously quarantined digests
    retry_quarantined: bool = False
    #: injection point for tests; production is time.sleep
    sleep: Callable[[float], None] = field(
        default=time.sleep, repr=False, compare=False
    )


#: the policy plain ``sweep()`` calls get: exactly the historical
#: behavior — no retries, first execution error propagates
PROPAGATE_POLICY = SupervisionPolicy(max_attempts=1, quarantine=False)


def retryable(exc: BaseException) -> bool:
    """Poisoned specs never retry; everything else may."""
    try:
        from repro.faults.process import retryable as _retryable

        return _retryable(exc)
    except ImportError:  # pragma: no cover
        return True


class Backoff:
    """Decorrelated-jitter exponential backoff (seeded, so chaos runs
    sleep the same schedule every time)."""

    def __init__(self, policy: SupervisionPolicy):
        self._rng = random.Random(policy.backoff_seed)
        self._base = max(policy.base_backoff, 0.0)
        self._cap = max(policy.max_backoff, self._base)
        self._prev = self._base

    def next(self) -> float:
        self._prev = min(
            self._cap,
            self._rng.uniform(self._base, max(self._prev * 3, self._base)),
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
        return {
            "digest": self.digest,
            "label": self.label,
            "attempts": self.attempts,
            "error": self.error,
            "carried": self.carried,
        }




# -- the supervisor ----------------------------------------------------------


@dataclass
class Unit:
    """One unit of work: a single spec, or a homogeneous capture batch
    the ensemble engine runs in one pass (:mod:`repro.ensemble.routing`)."""

    #: ``(digest, spec)`` pairs
    items: List[Tuple[str, RunSpec]]
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
    #: per process: ``{"hits": n, "misses": n}`` (pooled sweeps only)
    worker_cache: Dict[str, Dict[str, int]] = field(default_factory=dict)
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
    """Prepare a unit and journal its start.  A batch the ensemble
    engine cannot run raises ``EnsembleUnsupported`` here, before any
    ``started`` record is written."""
    from repro.runcache.sweep import prepare_unit

    execute = prepare_unit(specs)
    for digest in digests:
        journal.started(digest, attempt=attempt)
    return execute


def _pool_worker(args) -> List[str]:
    """Run one unit in a pool worker, publishing into the shared
    on-disk cache; returns the digests the parent reloads.

    The worker joins the parent's telemetry run: it wraps the execution
    in a ``shard`` span parented to the fan-out and publishes its cache
    hit/miss counts as sweep-labeled counters the parent folds into
    :attr:`SweepResult.worker_cache`.  The ``started`` records precede
    the process-fault hook, so a killed worker leaves a started-but-
    never-finished trail.
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
        emitter = telemetry_runtime.activate(tel_root, parent_id=sweep_id)
        try:
            attrs = _shard_attrs(specs, sweep_id, attempt)
            with emitter.span("shard", **attrs):
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
        self.backoff = Backoff(policy)
        self.sweep_id: Optional[str] = None
        self.tel_root: Optional[str] = None
        self.queue: Deque[Unit] = deque()
        #: future -> (unit, True when it runs in a pool worker)
        self.pending: Dict[Future, Tuple[Unit, bool]] = {}
        self.deadlines: Dict[Future, float] = {}
        self.timed_out: Set[Future] = set()
        self.inline = _InlineExecutor()
        self.pool = None
        self.workers = 0
        self.restarts = 0

    # -- placement -----------------------------------------------------

    def _open_pool(self) -> None:
        try:
            self.pool = ProcessPoolExecutor(max_workers=self.workers)
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
        ``pool_restart_limit``, degrade to in-process."""
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
        if self.restarts > self.policy.pool_restart_limit:
            self._degrade()
            return
        self.policy.sleep(self.backoff.next())
        self._open_pool()

    def _run_inline(self, unit: Unit, attempt: int) -> List[Any]:
        execute = _begin(
            unit.specs, [key for key, _ in unit.items], self.journal, attempt
        )
        with self.emitter.span(
            "shard", serial=True,
            **_shard_attrs(unit.specs, self.sweep_id, attempt),
        ):
            return execute(self.cache)

    def _fill(self) -> None:
        """Submit queued units: every one bound for the pool, then at
        most one in-process, whose result is handled before anything
        else runs (so a propagating error stops the sweep there)."""
        while self.queue:
            unit = self.queue[0]
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
            self.queue.popleft()
            unit.attempts = attempt
            self.pending[fut] = (unit, pooled)
            if not pooled:
                return
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
        ``pool_restart_limit`` bounds them."""
        self._journal_failed(unit, message, True)
        self._retry(unit, message)

    def _split(self, unit: Unit, exc: Exception) -> None:
        """The ensemble engine cannot run this batch: its runs go back
        as single-spec units under the same attempt number."""
        self.emitter.event(
            "ensemble.fallback", label=unit.label, runs=len(unit.items),
            reason=str(exc),
        )
        self.queue.extend(
            Unit([item], unit.attempts - 1, unit.errors)
            for item in unit.items
        )

    def _finished(self, unit: Unit, result: List[Any], pooled: bool) -> None:
        lost = []
        for (key, spec), value in zip(unit.items, result):
            # a pool worker returns digests: reload what it published
            artifact = self.cache.get(spec) if pooled else value
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
        from repro.ensemble.engine import EnsembleUnsupported

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
                    except EnsembleUnsupported as exc:
                        self._split(unit, exc)
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
    misses: List[Tuple[str, RunSpec]],
    cache,
    jobs: int,
    *,
    policy: SupervisionPolicy,
    journal,
    emitter,
) -> Outcome:
    """Execute a sweep's cache misses; the one way a sweep runs work.

    Misses group into units (:func:`repro.ensemble.routing.plan_units`).
    The units run in-process when there is no cache, ``jobs`` is 1 or
    there is only one unit; otherwise under a ``fanout`` span across a
    ``ProcessPoolExecutor`` of ``min(jobs, units)`` workers that
    publish into the shared store, degrading to in-process when the
    pool cannot start or breaks too often.  With a telemetry run active
    the workers emit into it; otherwise into a scratch directory kept
    only long enough to fold their cache counts.  The parent's own
    lookups (reloads, in-process units) join those counts under its pid.
    """
    from repro.ensemble.routing import plan_units

    units = [Unit(items) for items in plan_units(misses)]
    sup = _Supervisor(cache, policy, journal, emitter)
    sup.out.units = len(units)
    workers = min(jobs, len(units))
    if cache is None or workers < 2:
        sup.run(units)
    else:
        ephemeral = None
        if telemetry_runtime.active():
            sup.tel_root = str(emitter.run.root)
        else:
            ephemeral = tempfile.mkdtemp(prefix="repro-telemetry-")
            sup.tel_root = ephemeral
        hits0, misses0 = cache.session_hits, cache.session_misses
        try:
            with emitter.span(
                "fanout", n_misses=len(misses), jobs=workers
            ) as fanout_span:
                sup.sweep_id = fanout_span.span_id or new_trace_id()[:12]
                sup.run(units, workers)
            records, _skipped = load_records(sup.tel_root)
            counts = worker_cache_counts(records, sup.sweep_id)
        finally:
            if ephemeral is not None:
                shutil.rmtree(ephemeral, ignore_errors=True)
        delta_h = cache.session_hits - hits0
        delta_m = cache.session_misses - misses0
        if delta_h or delta_m:
            mine = counts.setdefault(
                str(os.getpid()), {"hits": 0, "misses": 0}
            )
            mine["hits"] += delta_h
            mine["misses"] += delta_m
        sup.out.worker_cache = counts
        sup.out.fanout = True
    sup.out.executed = [
        key for key, _ in misses if key in sup.out.artifacts
    ]
    return sup.out
