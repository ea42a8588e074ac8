"""Real-*process* fault plans for the orchestration layer.

:mod:`repro.faults.plan` injects failures into the *simulated* machine;
this module injects them into the machinery that runs the simulations —
the ``runcache.sweep()`` process pool and the on-disk store.  A
:class:`ProcessFaultPlan` declares worker SIGKILLs, hangs, flaky or
poisoned spec executions, and cache-write faults (ENOSPC, truncated
payloads).  The resilience gate (``tests/gates/test_resilience.py``) and the
real-process failure tests use it to prove the supervised sweep path
recovers byte-identically.

Activation is environment-driven so it crosses the ``fork``/``spawn``
boundary into pool workers: :func:`activate` saves the plan as JSON and
points ``$REPRO_PROCESS_FAULTS`` at it.  Every hook is a constant-time
no-op when the variable is unset — production sweeps never pay for
this module, and ``import repro`` never loads it.

Faults with a count (``kill_starts``, ``enospc_puts``, ...) are
*globally* bounded across all processes of a sweep: each occurrence
claims a slot file in ``state_dir`` with ``O_CREAT | O_EXCL``, so N
kills means N kills no matter how many workers race for them — which
is what makes a chaos run terminate instead of killing every retry.
"""

from __future__ import annotations

import errno
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

#: environment variable carrying the path of the active plan's JSON
ENV_VAR = "REPRO_PROCESS_FAULTS"

PROCESS_PLAN_SCHEMA = "repro.processfaults/1"

PLAN_FILE = "process-faults.json"


class InjectedFault(RuntimeError):
    """A *transient* injected execution failure (retryable)."""


class PoisonedSpec(InjectedFault):
    """A *permanent* injected failure: every attempt fails, so the
    supervisor must quarantine instead of retrying forever."""


def retryable(exc: BaseException) -> bool:
    """Whether the supervisor should retry after this exception."""
    return not isinstance(exc, PoisonedSpec)


def _match(label: str, patterns: Sequence[str]) -> bool:
    return any(fnmatchcase(label, pat) for pat in patterns)


@dataclass(frozen=True)
class ProcessFaultPlan:
    """Declarative real-process fault schedule for one chaos run.

    Label patterns are :func:`fnmatch.fnmatchcase` globs matched
    against ``RunSpec.label()`` (e.g. ``"observe:Al-1000:*"``); kind
    patterns match ``RunSpec.kind``.  ``"*"`` matches everything.
    """

    #: directory holding the bounded-occurrence slot files
    state_dir: str
    #: SIGKILL a pool worker as it starts a matching shard (first
    #: ``kill_starts`` matches across the whole sweep)
    kill_labels: Tuple[str, ...] = ()
    kill_starts: int = 0
    #: hang a matching shard for ``hang_seconds`` before executing
    hang_labels: Tuple[str, ...] = ()
    hang_starts: int = 0
    hang_seconds: float = 30.0
    #: raise a retryable InjectedFault from the first
    #: ``flaky_failures`` matching executions
    flaky_labels: Tuple[str, ...] = ()
    flaky_failures: int = 0
    #: raise PoisonedSpec from *every* matching execution
    poison_labels: Tuple[str, ...] = ()
    #: fail the first ``enospc_puts`` matching cache stores with ENOSPC
    enospc_kinds: Tuple[str, ...] = ()
    enospc_puts: int = 0
    #: silently halve the payload of the first ``truncate_puts``
    #: matching cache stores (a torn write the reader must detect)
    truncate_kinds: Tuple[str, ...] = ()
    truncate_puts: int = 0

    def to_dict(self) -> Dict[str, Any]:
        doc = asdict(self)
        doc["schema"] = PROCESS_PLAN_SCHEMA
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ProcessFaultPlan":
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in doc.items() if k in known}
        for name in (
            "kill_labels", "hang_labels", "flaky_labels",
            "poison_labels", "enospc_kinds", "truncate_kinds",
        ):
            kwargs[name] = tuple(kwargs.get(name) or ())
        return cls(**kwargs)

    def save(self, path: os.PathLike) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=1) + "\n", encoding="utf-8"
        )
        return path


def activate(
    plan: ProcessFaultPlan, env: Optional[Dict[str, str]] = None
) -> Path:
    """Arm ``plan`` for this process and every child it spawns."""
    env = os.environ if env is None else env
    state = Path(plan.state_dir)
    state.mkdir(parents=True, exist_ok=True)
    path = plan.save(state / PLAN_FILE)
    env[ENV_VAR] = str(path)
    _PLAN_CACHE.clear()
    return path


def deactivate(env: Optional[Dict[str, str]] = None) -> None:
    env = os.environ if env is None else env
    env.pop(ENV_VAR, None)
    _PLAN_CACHE.clear()


_PLAN_CACHE: Dict[str, ProcessFaultPlan] = {}


def active_plan() -> Optional[ProcessFaultPlan]:
    """The armed plan, or None.  Unreadable plans disarm silently —
    fault injection must never be able to break a production sweep."""
    path = os.environ.get(ENV_VAR)
    if not path:
        return None
    plan = _PLAN_CACHE.get(path)
    if plan is not None:
        return plan
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        plan = ProcessFaultPlan.from_dict(doc)
    except (OSError, ValueError, TypeError):
        return None
    _PLAN_CACHE[path] = plan
    return plan


def _claim(plan: ProcessFaultPlan, prefix: str, limit: int) -> bool:
    """Claim one of ``limit`` global occurrence slots (True = fire)."""
    if limit <= 0:
        return False
    state = Path(plan.state_dir)
    for i in range(limit):
        try:
            fd = os.open(
                state / f"{prefix}-{i}.slot",
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except OSError:
            continue
        os.write(fd, f"pid={os.getpid()} t={time.time()}\n".encode())
        os.close(fd)
        return True
    return False


# -- injection hooks (called from the orchestration layer) -------------------


def worker_started(label: str) -> None:
    """Hook at the top of a *pool worker's* shard.  May SIGKILL the
    worker (a real, unclean process death) or hang it past the
    supervisor's timeout.  Never called on the parent's serial path."""
    if ENV_VAR not in os.environ:
        return
    plan = active_plan()
    if plan is None:
        return
    if _match(label, plan.kill_labels) and _claim(
        plan, "kill", plan.kill_starts
    ):
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    if _match(label, plan.hang_labels) and _claim(
        plan, "hang", plan.hang_starts
    ):
        time.sleep(plan.hang_seconds)


def execution_fault(label: str) -> None:
    """Hook at the top of :func:`repro.runcache.sweep.execute_spec`:
    raises for poisoned (permanent) or flaky (transient) specs."""
    if ENV_VAR not in os.environ:
        return
    plan = active_plan()
    if plan is None:
        return
    if _match(label, plan.poison_labels):
        raise PoisonedSpec(f"injected permanent failure for {label}")
    if _match(label, plan.flaky_labels) and _claim(
        plan, "flaky", plan.flaky_failures
    ):
        raise InjectedFault(f"injected transient failure for {label}")


def corrupt_put(kind: str, data: bytes) -> bytes:
    """Hook inside :meth:`RunCache.put_bytes`: may raise ``ENOSPC`` or
    return a truncated payload (the meta still records the true length,
    so the store's read-side length check catches the torn write)."""
    if ENV_VAR not in os.environ:
        return data
    plan = active_plan()
    if plan is None:
        return data
    if _match(kind, plan.enospc_kinds) and _claim(
        plan, "enospc", plan.enospc_puts
    ):
        raise OSError(
            errno.ENOSPC, "No space left on device (injected)"
        )
    if _match(kind, plan.truncate_kinds) and _claim(
        plan, "truncate", plan.truncate_puts
    ):
        return data[: max(1, len(data) // 2)]
    return data
