"""Canonical cache keys for deterministic simulated runs.

A :class:`RunSpec` names everything that determines the outcome of one
run — the workload and its step count, thread count, seed, machine
topology, cost-model calibration, fault plan, pinning policy, and the
execution options the replay layer accepts.  :func:`spec_digest` maps a
spec to a content address: the SHA-256 of its canonical JSON encoding
salted with :func:`code_version_salt`, a hash of every ``repro`` source
file.  Because the simulated machine is byte-deterministic (same spec ⇒
same event trace, asserted since PR 1), the digest is a *sound* memo
key: two runs with equal digests produce byte-identical artifacts.

Canonicalization rules (asserted by ``tests/runcache/test_key.py``):

* dict/kwarg ordering never matters (keys are sorted at encode time);
* defaults never matter — ``params=None`` and an explicitly constructed
  default :class:`~repro.core.costmodel.CostParams` encode identically,
  and omitted options are filled from :data:`OPTION_DEFAULTS`;
* any *observable* change — a different field value, fault plan, or a
  single byte of engine/cost-model source — changes the digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.core.costmodel import DEFAULT_COST_PARAMS, CostParams

#: spec kinds the executor knows how to (re-)run
KINDS = (
    "capture", "observe", "trace", "chaos_ref", "chaos_case", "toolerror"
)

#: execution options a spec may carry, with their canonical defaults —
#: an omitted option and an explicitly-passed default hash identically
OPTION_DEFAULTS: Dict[str, Any] = {
    "partition": "block",
    "queue_mode": "single",
    "repeat": 1,
    "fuse_rebuild": True,
    "gc_model": "none",        # "none" | "chaos" (the chaos harness's)
    "phase_timeout_factor": None,
    "trace_steps": None,       # distinct capture length (chaos refs)
    # executor strategy knobs (the autotuner's search space)
    "assign": "owner-index",
    "chunk": "thread",
    "chunk_factor": 1,
    "steal_policy": "locality",
    "steal_cost_cycles": 400.0,
    "pop_overhead_cycles": 150.0,
    # named background load on the replay machine (observe specs only;
    # see repro.machine.background.LOAD_SCENARIOS)
    "load": None,
}

_SALT_CACHE: Dict[str, str] = {}


def code_version_salt() -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    Any change to the engine, cost model, machine model, DES, or the
    observation layers produces a new salt, invalidating every cached
    entry — staleness is impossible by construction.  Computed once per
    process (the tree is ~200 small files).
    """
    cached = _SALT_CACHE.get("salt")
    if cached is not None:
        return cached
    root = Path(__file__).resolve().parent.parent  # src/repro
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        h.update(rel.encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    salt = h.hexdigest()
    _SALT_CACHE["salt"] = salt
    return salt


def _canon_value(value):
    """JSON-ready deep copy with tuples as lists and dataclasses as
    (sorted-at-dump-time) dicts; rejects types with ambiguous encodings."""
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _canon_value(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _canon_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon_value(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "value") and hasattr(value, "name"):  # enum
        return _canon_value(value.value)
    raise TypeError(f"cannot canonicalize {type(value).__name__}: {value!r}")


def canonical_params(params: Optional[CostParams]) -> Dict[str, Any]:
    """Full field dict of ``params`` (defaults expanded when None)."""
    return _canon_value(params if params is not None else DEFAULT_COST_PARAMS)


def canonical_options(options: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """``options`` merged over :data:`OPTION_DEFAULTS`.

    Unknown option names are kept (they still determine the run), but a
    queue-mode enum is folded to its string value so
    ``QueueMode.SINGLE`` and ``"single"`` encode identically.
    """
    merged = dict(OPTION_DEFAULTS)
    for k, v in (options or {}).items():
        canon = _canon_value(v)
        # numeric knobs fold to the default's type, so 400 and 400.0
        # (or a future int-typed default passed as a float) encode
        # identically — JSON distinguishes them, the run does not
        default = OPTION_DEFAULTS.get(k)
        if (
            isinstance(default, float)
            and isinstance(canon, int)
            and not isinstance(canon, bool)
        ):
            canon = float(canon)
        elif (
            isinstance(default, int)
            and not isinstance(default, bool)
            and isinstance(canon, float)
            and canon.is_integer()
        ):
            canon = int(canon)
        merged[k] = canon
    return merged


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one deterministic run's artifacts.

    ``threads``/``machine`` are meaningless for pure physics captures
    (``kind="capture"``) and canonicalize to 0/"" there, so a capture
    requested through different replay paths dedupes to one entry.
    """

    kind: str
    workload: str
    steps: int
    seed: int = 0
    threads: int = 0
    machine: str = ""
    params: Optional[Dict[str, Any]] = None
    fault_plan: Optional[Dict[str, Any]] = None
    #: per-worker PU masks (pinning experiments); None = OS-scheduled
    affinities: Optional[Sequence] = None
    master_affinity: Optional[Sequence] = None
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown spec kind {self.kind!r}; choose from {KINDS}"
            )
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1: {self.steps}")
        if self.kind != "capture" and self.threads < 1:
            raise ValueError(
                f"{self.kind} spec needs threads >= 1: {self.threads}"
            )
        if self.kind != "observe" and self.options.get("load") is not None:
            raise ValueError(
                f"{self.kind} spec cannot carry a background load; only "
                "observe replays apply one"
            )

    def canonical(self) -> Dict[str, Any]:
        """The JSON-ready dict the digest is computed over.

        Memoized on the (frozen, hence immutable) instance: a sweep
        canonicalizes every spec several times — dedup, store meta,
        journal — and the deep normalization is the expensive part.
        Callers treat the returned dict as read-only.
        """
        cached = getattr(self, "_canonical_cache", None)
        if cached is not None:
            return cached
        is_capture = self.kind == "capture"
        out = {
            "kind": self.kind,
            "workload": self.workload,
            "steps": self.steps,
            "seed": self.seed,
            "threads": 0 if is_capture else self.threads,
            "machine": "" if is_capture else self.machine,
            "params": canonical_params(
                None if self.params is None else _as_params(self.params)
            ),
            "fault_plan": _canon_value(self.fault_plan),
            "affinities": _canon_value(self.affinities),
            "master_affinity": _canon_value(self.master_affinity),
            "options": canonical_options(self.options),
        }
        object.__setattr__(self, "_canonical_cache", out)
        return out

    def encode(self) -> str:
        """Canonical JSON text (sorted keys, no whitespace drift)."""
        return json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )

    def label(self) -> str:
        """Short human-readable tag for logs and verify reports."""
        bits = [self.kind, self.workload, f"s{self.steps}"]
        if self.kind != "capture":
            bits.append(f"x{self.threads}")
            if self.machine:
                bits.append(self.machine)
        if self.fault_plan is not None:
            bits.append(self.fault_plan.get("name") or "faulted")
        return ":".join(bits)


def _as_params(d: Dict[str, Any]) -> CostParams:
    """Rebuild a CostParams from a (possibly partial) field dict."""
    known = {f.name for f in fields(CostParams)}
    extra = set(d) - known
    if extra:
        raise ValueError(
            f"unknown CostParams field(s) {sorted(extra)}"
        )
    return CostParams(**d)


def params_to_spec(params: Optional[CostParams]) -> Optional[Dict[str, Any]]:
    """CostParams → the dict form a :class:`RunSpec` carries (None stays
    None; both encode to the same expanded defaults)."""
    if params is None:
        return None
    return _canon_value(params)


def spec_digest(spec: RunSpec, salt: Optional[str] = None) -> str:
    """Content address of a spec: SHA-256(canonical JSON + code salt).

    Memoized per (spec instance, salt): the store digests each spec on
    every lookup, put, and meta write, and the canonical-JSON encode
    dominates the hash itself.
    """
    key = salt if salt is not None else code_version_salt()
    cached = getattr(spec, "_digest_cache", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    h = hashlib.sha256()
    h.update(spec.encode().encode())
    h.update(b"\0")
    h.update(key.encode())
    digest = h.hexdigest()
    object.__setattr__(spec, "_digest_cache", (key, digest))
    return digest
