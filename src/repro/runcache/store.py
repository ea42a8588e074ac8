"""The on-disk content-addressed run cache.

Layout (under ``RunCache.root``, default ``~/.cache/repro/runcache`` or
``$REPRO_RUNCACHE_DIR``)::

    objects/<a>/<digest>.entry    one file per entry:
        {"digest":…,"label":…,"spec":{…},"artifact_bytes":N,…}\n
        <N bytes: the pickled artifact, unchanged>
    counters.jsonl                cumulative hit/miss/put-failure counters:
        {"hits":…,"misses":…}\n    one appended record per lookup pass
        {"put_failures":1}\n       and per absorbed put failure

The first line of an entry is a compact JSON header (digest, label,
canonical spec, the artifact's *intended* length, code salt, creation
time); the rest is exactly :func:`dumps_artifact`'s bytes.  Files of the
older two-file layout (``<digest>.pkl`` + ``<digest>.json``) are never
looked up again — the code salt in every digest moved past them — but
they are still counted, evicted by the cap and removed by ``clear``.

Guarantees:

* **atomic writes** — an entry lands via one ``os.replace`` of a
  same-dir temp file, so readers never observe a partial entry and
  concurrent writers of the same digest are last-writer-wins with
  identical bytes (the digest pins the content).  A handle creates a
  shard directory before its first write there; a shard removed behind
  the handle (``clear()``, another process) is created again and the
  write retried once;
* **corruption recovery** — an entry that exists but is unreadable
  (bad header, body shorter or longer than the header says, an
  unpicklable body) is treated as a miss and deleted, never raised to
  the caller.  A clean miss costs one failed ``open`` and nothing more;
* **write-failure absorption** — a store that cannot be written
  (ENOSPC, permissions, a torn temp file) records the failure
  (``session_put_failures`` + a ``cache.put_failed`` telemetry event)
  and behaves like a miss on the next lookup — a full disk degrades a
  sweep to uncached speed, it never kills it.  Orphaned ``*.tmp``
  files older than an hour (writers that died mid-put) are reaped when
  a handle opens the store;
* **LRU size cap** — ``max_bytes`` (default 512 MiB, or
  ``$REPRO_RUNCACHE_MAX_BYTES``) is enforced after every put by
  evicting least-recently-*used* entries (hits refresh an entry file's
  stamp); sizes are whole files, headers included;
* **one lookup pass** — a sweep looks up all its specs in one pass
  (``get`` is that pass over one spec): one ``cache.lookup`` event and
  one session count per spec, one counter record per pass.  Its
  uncounted step, ``read`` by digest, re-reads what a pass counted;
* **lossless counters** — each record is one ``os.write`` to an
  ``O_APPEND`` descriptor (the sweep journal's and telemetry's idiom),
  so concurrent handles and processes never lose an update; ``stats``
  sums the records (skipping a line torn by a writer that died
  mid-write) and ``clear`` removes them;
* **verify** — a sampled entry is re-executed from the spec in its
  header and the fresh pickle is byte-compared against the cached one,
  which the DES's deterministic-replay guarantee makes an exact check.

Wall-clock numbers are never cached: artifacts are simulated-time
results, so a timing taken through the cache times only its misses.
"""

from __future__ import annotations

import copyreg
import io
import itertools
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set,
)

import numpy as np

from repro.md.engine import PhaseWork, StepReport
from repro.md.forces.base import ForceResult
from repro.runcache.key import RunSpec, code_version_salt, spec_digest
from repro.telemetry import runtime as telemetry_runtime
from repro.telemetry.schema import CACHE_STATS_SCHEMA

#: pinned so one store never mixes pickle encodings across interpreters
PICKLE_PROTOCOL = 4

DEFAULT_MAX_BYTES = 512 * 2**20

#: age past which a leftover ``.tmp`` file is an orphan, not a
#: concurrent writer's live temp file
ORPHAN_TMP_MAX_AGE = 3600.0

#: file name suffix of a one-file entry (header line + pickle bytes)
_ENTRY_SUFFIX = ".entry"

#: leading digest characters that name an entry's shard directory: one
#: hex digit, 16 shards, so a sweep into a fresh store makes at most 16
#: directories (a new directory costs a mkdir and a slow first create)
_SHARD_CHARS = 1

#: the cumulative counters: one JSON record per line, appended
_COUNTERS = "counters.jsonl"

#: temp-file sequence (:meth:`RunCache._atomic_write`): one per
#: process, so no two handles or threads of a process share a name
_TMP_SEQ = itertools.count()

_ENV_DIR = "REPRO_RUNCACHE_DIR"
_ENV_MAX = "REPRO_RUNCACHE_MAX_BYTES"


def default_cache_dir() -> Path:
    """``$REPRO_RUNCACHE_DIR`` or ``~/.cache/repro/runcache``."""
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "runcache"


def _reduce_plain(obj: Any) -> tuple:
    """What ``object.__reduce_ex__(4)`` returns for an instance with a
    ``__dict__`` and no reduce/state hooks of its own (an empty
    ``__dict__`` is no state), without the failed hook lookups that
    call pays per object."""
    return copyreg.__newobj__, (type(obj),), obj.__dict__ or None


#: numpy's reconstructor and dummy-dtype byte, taken from a real
#: reduce so pickle's memo sees the very objects numpy's own path uses
_RECONSTRUCT, (_, _, _DUMMY_DTYPE), _ = np.zeros(0).__reduce__()
#: a name, not a literal ``(0,)``: a constant tuple would be one object
#: for every array, and the memo would emit a reference after its first
_ZERO = 0


def _reduce_ndarray(a: np.ndarray) -> tuple:
    """``np.ndarray.__reduce__``'s tuple, built in Python for a
    C-contiguous array without object items (numpy's C path imports
    its reconstructor's module on every call).  The inner tuples are
    fresh per call, as numpy's are, so the memo emits the same
    opcodes.  Every other array takes numpy's path."""
    if not a.flags.c_contiguous or a.dtype.hasobject:
        return a.__reduce__()
    return (
        _RECONSTRUCT,
        (np.ndarray, (_ZERO,), _DUMMY_DTYPE),
        (1, a.shape, a.dtype, False, a.tobytes()),
    )


#: per-type reducers for the objects a capture trace holds thousands
#: of; each returns exactly what the default path would, so the pickle
#: bytes are unchanged (``tests/runcache/test_pickle_oracle.py``)
_REDUCERS = {
    StepReport: _reduce_plain,
    PhaseWork: _reduce_plain,
    ForceResult: _reduce_plain,
    np.ndarray: _reduce_ndarray,
}


def dumps_artifacts(artifacts: Iterable[Any]) -> Iterator[bytes]:
    """Canonical byte encoding of each artifact in turn (the verify
    currency): ``pickle.dumps(artifact, protocol=4)``, byte for byte.

    One pickler encodes the whole batch.  Its memo is cleared after
    every artifact, so an object two artifacts share (a lockstep
    step's predict work) is written in full into each.  Encoding is
    lazy: a caller that stores each blob before it asks for the next
    holds one blob at a time."""
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=PICKLE_PROTOCOL)
    # a pickler's own table replaces copyreg's, so it carries copyreg's
    # registrations too (read per call: libraries may add to them)
    pickler.dispatch_table = {**copyreg.dispatch_table, **_REDUCERS}
    for artifact in artifacts:
        pickler.dump(artifact)
        pickler.clear_memo()
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def dumps_artifact(artifact: Any) -> bytes:
    """:func:`dumps_artifacts` of one artifact."""
    return next(dumps_artifacts([artifact]))


@dataclass
class VerifyReport:
    """Outcome of re-running one cached entry."""

    digest: str
    label: str
    ok: bool
    detail: str = ""


@dataclass
class CacheStats:
    """Snapshot of a store's state (the ``repro cache stats`` payload)."""

    root: str
    entries: int
    total_bytes: int
    max_bytes: int
    hits: int
    misses: int
    salt: str
    by_kind: Dict[str, int] = field(default_factory=dict)
    put_failures: int = 0

    @property
    def hit_rate(self) -> float:
        seen = self.hits + self.misses
        return self.hits / seen if seen else 0.0

    def to_dict(self) -> dict:
        return {
            "schema": CACHE_STATS_SCHEMA,
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "salt": self.salt,
            "by_kind": dict(self.by_kind),
            "put_failures": self.put_failures,
        }

    def render(self) -> str:
        lines = [
            f"run cache at {self.root}",
            f"  entries     {self.entries} "
            f"({self.total_bytes / 2**20:.2f} MiB of "
            f"{self.max_bytes / 2**20:.0f} MiB cap)",
            f"  lookups     {self.hits} hits / {self.misses} misses "
            f"(hit rate {self.hit_rate * 100:.1f}%)",
            f"  code salt   {self.salt[:16]}…",
        ]
        if self.put_failures:
            lines.insert(
                3, f"  put failures {self.put_failures} (stored as misses)"
            )
        for kind in sorted(self.by_kind):
            lines.append(f"    {kind:<11} {self.by_kind[kind]} entries")
        return "\n".join(lines)


class RunCache:
    """Content-addressed store of deterministic run artifacts."""

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        max_bytes: Optional[int] = None,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        if max_bytes is None:
            env = os.environ.get(_ENV_MAX)
            max_bytes = int(env) if env else DEFAULT_MAX_BYTES
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1: {max_bytes}")
        self.max_bytes = max_bytes
        self._salt = code_version_salt()
        #: lookups made through *this* handle (session counters; the
        #: cumulative ones are the records in counters.jsonl)
        self.session_hits = 0
        self.session_misses = 0
        #: stores that failed (ENOSPC, permissions) and were absorbed
        self.session_put_failures = 0
        #: running estimate of stored artifact bytes; None until the
        #: first put scans the directory once.  Keeping it incremental
        #: makes put O(1) instead of O(entries) — the full rescan only
        #: happens when the estimate crosses the cap (see
        #: :meth:`_enforce_cap`, which resyncs it).
        self._approx_bytes: Optional[int] = None
        #: shard directories this handle has made sure of
        self._shards: Set[str] = set()
        self.reap_orphans()

    # -- paths -----------------------------------------------------------

    def _objects(self) -> Path:
        return self.root / "objects"

    def _path(self, digest: str) -> Path:
        shard = digest[:_SHARD_CHARS]
        return self._objects() / shard / f"{digest}{_ENTRY_SUFFIX}"

    def digest(self, spec: RunSpec) -> str:
        return spec_digest(spec, self._salt)

    # -- lookups ---------------------------------------------------------

    def read(self, digest: str, raw: bool = False) -> Optional[Any]:
        """The unpickled artifact stored under ``digest`` (its bytes
        when ``raw``), or None: uncounted, no event.

        A missing file is a clean miss.  An entry that exists but is
        unreadable — no header, a header without the length, a body
        whose length differs from it, a body that does not unpickle —
        is deleted and reported as a miss; a sound entry gets its LRU
        stamp refreshed.
        """
        path = self._path(digest)
        try:
            with open(path, "rb") as fh:
                header = fh.readline()
                data = fh.read()
        except FileNotFoundError:
            return None
        except OSError:
            self._drop(path)
            return None
        try:
            sound = json.loads(header)["artifact_bytes"] == len(data)
        except (ValueError, KeyError, TypeError):
            sound = False
        if not sound:
            self._drop(path)
            return None
        try:
            os.utime(path)  # LRU stamp
        except OSError:
            pass
        if raw:
            return data
        try:
            return pickle.loads(data)
        except Exception:
            self._drop(path)
            return None

    def _lookup(
        self, specs: Sequence[RunSpec], raw: bool = False
    ) -> List[Optional[Any]]:
        """The lookup pass: :meth:`read` of each spec, in ``specs``
        order.

        Every spec gets its session count and ``cache.lookup`` event;
        the pass appends its totals as one counter record.
        """
        emitter = telemetry_runtime.current()
        out: List[Optional[Any]] = []
        hits = 0
        for spec in specs:
            digest = self.digest(spec)
            value = self.read(digest, raw)
            hit = value is not None
            hits += hit
            emitter.event(
                "cache.lookup", hit=hit, kind=spec.kind, digest=digest[:12]
            )
            out.append(value)
        misses = len(out) - hits
        self.session_hits += hits
        self.session_misses += misses
        if out:
            self._bump(hits=hits, misses=misses)
        return out

    def get_bytes(self, spec: RunSpec) -> Optional[bytes]:
        """Raw artifact bytes for a spec, or None on miss."""
        return self._lookup([spec], raw=True)[0]

    def get(self, spec: RunSpec) -> Optional[Any]:
        """Unpickled artifact for a spec, or None on miss/corruption."""
        return self._lookup([spec])[0]

    def contains(self, spec: RunSpec) -> bool:
        """Whether an entry is stored: uncounted, never read.  An entry
        lands by one atomic replace, so an entry mid-put does not count
        yet."""
        return self._path(self.digest(spec)).exists()

    # -- writes ----------------------------------------------------------

    def put_bytes(self, spec: RunSpec, data: bytes) -> str:
        """Store pre-pickled artifact bytes; returns the digest.

        A failed write (ENOSPC, permissions, a disk pulled mid-put) is
        *absorbed*: nothing partial is left, the failure is counted and
        emitted as a ``cache.put_failed`` event, and the digest is
        still returned — the entry simply stays a miss.  The sweep's
        correctness never depends on a put landing.
        """
        digest = self.digest(spec)
        path = self._path(digest)
        # the header records the *intended* length: a torn body (a
        # shorter file) is caught by the read-side length check
        header = json.dumps(
            {
                "digest": digest,
                "label": spec.label(),
                "spec": spec.canonical(),
                "artifact_bytes": len(data),
                "salt": self._salt,
                "created": time.time(),
            },
            separators=(",", ":"),
        )
        try:
            if "REPRO_PROCESS_FAULTS" in os.environ:  # chaos harness
                from repro.faults import process as process_faults

                data = process_faults.corrupt_put(spec.kind, data)
            entry = header.encode() + b"\n" + data
            if path.parent.name not in self._shards:
                path.parent.mkdir(parents=True, exist_ok=True)
                self._shards.add(path.parent.name)
            try:
                self._atomic_write(path, entry)
            except FileNotFoundError:
                # the shard was removed behind this handle
                path.parent.mkdir(parents=True, exist_ok=True)
                self._atomic_write(path, entry)
        except OSError as exc:
            self.session_put_failures += 1
            self._bump(put_failures=1)
            telemetry_runtime.current().event(
                "cache.put_failed",
                kind=spec.kind,
                digest=digest[:12],
                bytes=len(data),
                error=f"{type(exc).__name__}: {exc}"[:200],
            )
            return digest
        telemetry_runtime.current().event(
            "cache.put",
            kind=spec.kind,
            digest=digest[:12],
            bytes=len(data),
        )
        if self._approx_bytes is None:
            # first put through this handle: one directory scan, which
            # already includes the entry just written
            self._approx_bytes = sum(
                e["bytes"] for e in self._entries()
            )
        else:
            self._approx_bytes += len(entry)
        if self._approx_bytes > self.max_bytes:
            self._enforce_cap()
        return digest

    def put(self, spec: RunSpec, artifact: Any) -> str:
        return self.put_bytes(spec, dumps_artifact(artifact))

    def _atomic_write(self, path: Path, data: bytes) -> None:
        """Write ``data`` to a fresh same-dir temp file, then replace
        ``path`` with it.  The temp name (``.<entry>.<pid>.<n>.tmp``)
        is unique to this process, and ``O_EXCL`` fails the write
        rather than share a file with another writer."""
        seq = next(_TMP_SEQ)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{seq}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _drop(self, *paths: Path) -> None:
        """Delete an entry's files, keeping the byte estimate in step."""
        for path in paths:
            try:
                size = path.stat().st_size
                os.unlink(path)
            except OSError:
                continue
            if self._approx_bytes is not None:
                self._approx_bytes -= size

    # -- maintenance -----------------------------------------------------

    def reap_orphans(
        self, max_age: float = ORPHAN_TMP_MAX_AGE
    ) -> int:
        """Delete ``*.tmp`` files left by writers that died mid-put.

        Only files older than ``max_age`` seconds go — younger ones
        may belong to a live concurrent writer.  Runs on every store
        open, so a crashed sweep never leaks temp files forever.
        """
        objects = self._objects()
        if not objects.is_dir():
            return 0
        cutoff = time.time() - max_age
        reaped = 0
        for tmp in objects.glob("*/*.tmp"):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    os.unlink(tmp)
                    reaped += 1
            except OSError:
                continue
        if reaped:
            telemetry_runtime.current().event(
                "cache.orphans_reaped", count=reaped
            )
        return reaped

    @staticmethod
    def _kind(entry: dict) -> str:
        """The spec kind in an entry's header; ``""`` when it has none
        (a bad header, or the older layout, which is never read)."""
        if entry["path"] is None:
            return ""
        try:
            with open(entry["path"], "rb") as fh:
                return str(json.loads(fh.readline())["spec"]["kind"])
        except (OSError, ValueError, KeyError, TypeError):
            return ""

    def _entries(self) -> List[dict]:
        """All stored entries, from one directory scan: digest, size,
        LRU stamp and files.

        ``path`` is the one-file entry, or None for an entry of the
        older two-file layout, whose files (``paths``) are counted and
        evicted together but never read.
        """
        objects = self._objects()
        if not objects.is_dir():
            return []
        found: Dict[str, dict] = {}
        for path in objects.glob("*/*"):
            if path.name.startswith("."):  # a writer's temp file
                continue
            try:
                st = path.stat()
            except OSError:
                continue
            digest = path.name.split(".", 1)[0]
            entry = found.setdefault(
                digest,
                {"digest": digest, "bytes": 0, "used": 0.0,
                 "path": None, "paths": []},
            )
            entry["bytes"] += st.st_size
            entry["used"] = max(entry["used"], st.st_mtime)
            entry["paths"].append(path)
            if path.suffix == _ENTRY_SUFFIX:
                entry["path"] = path
        return list(found.values())

    def _enforce_cap(self) -> int:
        """Evict least-recently-used entries above the size cap.

        The full directory scan lives here (and only here): routine
        puts keep an incremental byte total and call this just when
        that estimate crosses the cap.  Concurrent writers to the same
        directory are invisible to the estimate until the next scan —
        the cap was always best-effort across processes — so the scan
        also resyncs the estimate to ground truth.
        """
        entries = self._entries()
        total = sum(e["bytes"] for e in entries)
        evicted = 0
        for entry in sorted(entries, key=lambda e: e["used"]):
            if total <= self.max_bytes:
                break
            kind = self._kind(entry)
            self._drop(*entry["paths"])
            telemetry_runtime.current().event(
                "cache.evict",
                digest=entry["digest"][:12],
                bytes=entry["bytes"],
                kind=kind,
            )
            total -= entry["bytes"]
            evicted += 1
        self._approx_bytes = total
        return evicted

    def clear(self) -> int:
        """Delete every entry (and the counters); returns entries removed."""
        entries = self._entries()
        for entry in entries:
            self._drop(*entry["paths"])
        self._approx_bytes = 0
        try:
            os.unlink(self.root / _COUNTERS)
        except OSError:
            pass
        # remove now-empty shard dirs, best effort
        objects = self._objects()
        if objects.is_dir():
            for shard in objects.iterdir():
                try:
                    shard.rmdir()
                except OSError:
                    pass
        return len(entries)

    # -- counters --------------------------------------------------------

    def _bump(self, **deltas: int) -> None:
        """Append ``deltas`` to the cumulative counters as one record:
        one ``os.write`` to an ``O_APPEND`` descriptor, so no update is
        lost to a concurrent writer.  Best effort: a disk that cannot
        take the write is the thing that is broken."""
        line = (json.dumps(deltas, separators=(",", ":")) + "\n").encode()
        path = self.root / _COUNTERS
        flags = os.O_APPEND | os.O_CREAT | os.O_WRONLY
        try:
            try:
                fd = os.open(path, flags, 0o644)
            except FileNotFoundError:  # the store's root is not made yet
                self.root.mkdir(parents=True, exist_ok=True)
                fd = os.open(path, flags, 0o644)
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
        except OSError:
            pass

    def stats(self) -> CacheStats:
        entries = self._entries()
        by_kind: Dict[str, int] = {}
        for e in entries:
            kind = self._kind(e) or "?"
            by_kind[kind] = by_kind.get(kind, 0) + 1
        totals = {"hits": 0, "misses": 0, "put_failures": 0}
        try:
            records = (self.root / _COUNTERS).read_bytes().splitlines()
        except OSError:
            records = []
        for line in records:
            try:
                record = json.loads(line)
                deltas = {k: int(record.get(k, 0)) for k in totals}
            except (ValueError, TypeError, AttributeError):
                continue  # torn by a writer that died mid-write
            for name, delta in deltas.items():
                totals[name] += delta
        return CacheStats(
            root=str(self.root),
            entries=len(entries),
            total_bytes=sum(e["bytes"] for e in entries),
            max_bytes=self.max_bytes,
            salt=self._salt,
            by_kind=by_kind,
            **totals,
        )

    # -- verification ----------------------------------------------------

    def verify(
        self, sample: int = 1, seed: int = 0
    ) -> List[VerifyReport]:
        """Re-run up to ``sample`` cached entries and byte-compare.

        Entries are chosen deterministically from ``seed`` over the
        sorted digest list of one-file entries (files of the older
        layout are never read).  Each report says whether the fresh
        artifact's pickle bytes equal the cached ones; a mismatch is a
        determinism (or corruption) bug, never an expected state.
        """
        import random

        from repro.runcache.resilience import spec_from_canonical
        from repro.runcache.sweep import execute_spec

        entries = sorted(
            (e for e in self._entries() if e["path"] is not None),
            key=lambda e: e["digest"],
        )
        if not entries:
            return []
        rng = random.Random(seed)
        chosen = rng.sample(entries, min(sample, len(entries)))
        reports: List[VerifyReport] = []
        for entry in chosen:
            try:
                with open(entry["path"], "rb") as fh:
                    spec = spec_from_canonical(
                        json.loads(fh.readline())["spec"]
                    )
                    cached = fh.read()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reports.append(
                    VerifyReport(
                        entry["digest"], "?", False,
                        f"unreadable entry: {exc}",
                    )
                )
                continue
            fresh = dumps_artifact(execute_spec(spec, cache=self))
            ok = fresh == cached
            telemetry_runtime.current().event(
                "cache.verify",
                digest=entry["digest"][:12],
                ok=ok,
                label=spec.label(),
            )
            reports.append(
                VerifyReport(
                    entry["digest"],
                    spec.label(),
                    ok,
                    "byte-identical" if ok else (
                        f"MISMATCH: fresh {len(fresh)} bytes vs "
                        f"cached {len(cached)}"
                    ),
                )
            )
        return reports
