"""The on-disk content-addressed run cache.

Layout (under ``RunCache.root``, default ``~/.cache/repro/runcache`` or
``$REPRO_RUNCACHE_DIR``)::

    objects/<aa>/<digest>.pkl    pickled artifact (the content)
    objects/<aa>/<digest>.json   meta: spec, label, sizes, created
    stats.json                   cumulative hit/miss counters

Guarantees:

* **atomic writes** — artifacts land via ``os.replace`` of a same-dir
  temp file, so readers never observe a partial entry and concurrent
  writers of the same digest are last-writer-wins with identical bytes
  (the digest pins the content);
* **corruption recovery** — an unreadable/truncated entry is treated as
  a miss and deleted, never raised to the caller;
* **write-failure absorption** — a store that cannot be written
  (ENOSPC, permissions, a torn temp file) records the failure
  (``session_put_failures`` + a ``cache.put_failed`` telemetry event)
  and behaves like a miss on the next lookup — a full disk degrades a
  sweep to uncached speed, it never kills it.  Orphaned ``*.tmp``
  files older than an hour (writers that died mid-put) are reaped when
  a handle opens the store;
* **LRU size cap** — ``max_bytes`` (default 512 MiB, or
  ``$REPRO_RUNCACHE_MAX_BYTES``) is enforced after every put by
  evicting least-recently-*used* entries (hits refresh an entry's
  stamp);
* **verify** — a sampled entry is re-executed from its stored spec and
  the fresh pickle is byte-compared against the cached one, which the
  DES's deterministic-replay guarantee makes an exact check.

Wall-clock numbers are never cached: artifacts are simulated-time
results, and the benchmark scripts time only cache *misses*.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.runcache.key import RunSpec, code_version_salt, spec_digest
from repro.telemetry import runtime as telemetry_runtime
from repro.telemetry.schema import CACHE_STATS_SCHEMA

#: pinned so one store never mixes pickle encodings across interpreters
PICKLE_PROTOCOL = 4

DEFAULT_MAX_BYTES = 512 * 2**20

#: age past which a leftover ``.tmp`` file is an orphan, not a
#: concurrent writer's live temp file
ORPHAN_TMP_MAX_AGE = 3600.0

_ENV_DIR = "REPRO_RUNCACHE_DIR"
_ENV_MAX = "REPRO_RUNCACHE_MAX_BYTES"


def default_cache_dir() -> Path:
    """``$REPRO_RUNCACHE_DIR`` or ``~/.cache/repro/runcache``."""
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "runcache"


def dumps_artifact(artifact: Any) -> bytes:
    """Canonical byte encoding of an artifact (the verify currency)."""
    buf = io.BytesIO()
    pickle.Pickler(buf, protocol=PICKLE_PROTOCOL).dump(artifact)
    return buf.getvalue()


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
        #: cumulative ones live in stats.json)
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
        self.reap_orphans()

    # -- paths -----------------------------------------------------------

    def _objects(self) -> Path:
        return self.root / "objects"

    def _paths(self, digest: str) -> tuple:
        shard = self._objects() / digest[:2]
        return shard / f"{digest}.pkl", shard / f"{digest}.json"

    def digest(self, spec: RunSpec) -> str:
        return spec_digest(spec, self._salt)

    # -- lookups ---------------------------------------------------------

    def _read(self, spec: RunSpec) -> Optional[bytes]:
        """Uncounted lookup: artifact bytes or None.

        A corrupted or half-written entry (short file, bad meta) is
        deleted and reported as a miss; a sound entry gets its LRU
        stamp refreshed.
        """
        digest = self.digest(spec)
        pkl, meta = self._paths(digest)
        try:
            data = pkl.read_bytes()
            expected = json.loads(meta.read_text()).get("artifact_bytes")
        except (OSError, ValueError):
            self._drop(digest)
            return None
        if expected is not None and expected != len(data):
            self._drop(digest)
            return None
        now = time.time()
        try:
            os.utime(pkl, (now, now))  # LRU stamp
        except OSError:
            pass
        return data

    def get_bytes(self, spec: RunSpec) -> Optional[bytes]:
        """Raw artifact bytes for a spec, or None on miss."""
        data = self._read(spec)
        self._count(hit=data is not None)
        self._observe_lookup(spec, hit=data is not None)
        return data

    def get(self, spec: RunSpec) -> Optional[Any]:
        """Unpickled artifact for a spec, or None on miss/corruption."""
        data = self._read(spec)
        artifact = None
        if data is not None:
            try:
                artifact = pickle.loads(data)
            except Exception:
                self._drop(self.digest(spec))
        self._count(hit=artifact is not None)
        self._observe_lookup(spec, hit=artifact is not None)
        return artifact

    def _observe_lookup(self, spec: RunSpec, hit: bool) -> None:
        telemetry_runtime.current().event(
            "cache.lookup",
            hit=hit,
            kind=spec.kind,
            digest=self.digest(spec)[:12],
        )

    def contains(self, spec: RunSpec) -> bool:
        """Whether a complete entry is stored: uncounted, never
        unpickled.  The meta lands after the artifact, so an entry
        mid-put does not count yet."""
        pkl, meta = self._paths(self.digest(spec))
        return meta.exists() and pkl.exists()

    # -- writes ----------------------------------------------------------

    def put_bytes(self, spec: RunSpec, data: bytes) -> str:
        """Store pre-pickled artifact bytes; returns the digest.

        A failed write (ENOSPC, permissions, a disk pulled mid-put) is
        *absorbed*: the half-written entry is dropped, the failure is
        counted and emitted as a ``cache.put_failed`` event, and the
        digest is still returned — the entry simply stays a miss.  The
        sweep's correctness never depends on a put landing.
        """
        digest = self.digest(spec)
        pkl, meta = self._paths(digest)
        # meta records the *intended* length: a torn artifact write
        # (shorter file) is caught by the read-side length check
        meta_doc = {
            "digest": digest,
            "label": spec.label(),
            "spec": spec.canonical(),
            "artifact_bytes": len(data),
            "salt": self._salt,
            "created": time.time(),
        }
        try:
            if "REPRO_PROCESS_FAULTS" in os.environ:  # chaos harness
                from repro.faults import process as process_faults

                data = process_faults.corrupt_put(spec.kind, data)
            pkl.parent.mkdir(parents=True, exist_ok=True)
            self._atomic_write(pkl, data)
            self._atomic_write(
                meta, (json.dumps(meta_doc, indent=1) + "\n").encode()
            )
        except OSError as exc:
            self.session_put_failures += 1
            self._drop(digest)  # never leave a half pair behind
            self._count_put_failure()
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
            self._approx_bytes += len(data)
        if self._approx_bytes > self.max_bytes:
            self._enforce_cap()
        return digest

    def put(self, spec: RunSpec, artifact: Any) -> str:
        return self.put_bytes(spec, dumps_artifact(artifact))

    def _atomic_write(self, path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
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

    def _drop(self, digest: str) -> None:
        pkl, meta = self._paths(digest)
        if self._approx_bytes is not None:
            try:
                self._approx_bytes -= pkl.stat().st_size
            except OSError:
                pass
        for path in (pkl, meta):
            try:
                os.unlink(path)
            except OSError:
                pass

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

    def _entries(self) -> List[dict]:
        """All live entries: digest, size, LRU stamp, kind."""
        out = []
        objects = self._objects()
        if not objects.is_dir():
            return out
        for pkl in objects.glob("*/*.pkl"):
            try:
                st = pkl.stat()
            except OSError:
                continue
            kind = ""
            try:
                kind = json.loads(
                    pkl.with_suffix(".json").read_text()
                )["spec"]["kind"]
            except (OSError, ValueError, KeyError, TypeError):
                pass
            out.append(
                {
                    "digest": pkl.stem,
                    "bytes": st.st_size,
                    "used": st.st_mtime,
                    "kind": kind,
                }
            )
        return out

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
            self._drop(entry["digest"])
            telemetry_runtime.current().event(
                "cache.evict",
                digest=entry["digest"][:12],
                bytes=entry["bytes"],
                kind=entry["kind"],
            )
            total -= entry["bytes"]
            evicted += 1
        self._approx_bytes = total
        return evicted

    def clear(self) -> int:
        """Delete every entry (and the counters); returns entries removed."""
        entries = self._entries()
        for entry in entries:
            self._drop(entry["digest"])
        self._approx_bytes = 0
        for leftover in (self.root / "stats.json",):
            try:
                os.unlink(leftover)
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

    def _count(self, hit: bool) -> None:
        if hit:
            self.session_hits += 1
        else:
            self.session_misses += 1
        # cumulative counters: best-effort read-modify-replace (lost
        # updates under contention are acceptable for a diagnostic)
        path = self.root / "stats.json"
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            doc = {}
        doc["hits"] = int(doc.get("hits", 0)) + (1 if hit else 0)
        doc["misses"] = int(doc.get("misses", 0)) + (0 if hit else 1)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._atomic_write(
                path, (json.dumps(doc) + "\n").encode()
            )
        except OSError:
            pass

    def _count_put_failure(self) -> None:
        path = self.root / "stats.json"
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            doc = {}
        doc["put_failures"] = int(doc.get("put_failures", 0)) + 1
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._atomic_write(path, (json.dumps(doc) + "\n").encode())
        except OSError:  # the disk is the thing that's broken
            pass

    def stats(self) -> CacheStats:
        entries = self._entries()
        by_kind: Dict[str, int] = {}
        for e in entries:
            by_kind[e["kind"] or "?"] = by_kind.get(e["kind"] or "?", 0) + 1
        try:
            doc = json.loads((self.root / "stats.json").read_text())
        except (OSError, ValueError):
            doc = {}
        return CacheStats(
            root=str(self.root),
            entries=len(entries),
            total_bytes=sum(e["bytes"] for e in entries),
            max_bytes=self.max_bytes,
            hits=int(doc.get("hits", 0)),
            misses=int(doc.get("misses", 0)),
            salt=self._salt,
            by_kind=by_kind,
            put_failures=int(doc.get("put_failures", 0)),
        )

    # -- verification ----------------------------------------------------

    def verify(
        self, sample: int = 1, seed: int = 0
    ) -> List[VerifyReport]:
        """Re-run up to ``sample`` cached entries and byte-compare.

        Entries are chosen deterministically from ``seed`` over the
        sorted digest list.  Each report says whether the fresh
        artifact's pickle bytes equal the cached ones; a mismatch is a
        determinism (or corruption) bug, never an expected state.
        """
        import random

        from repro.runcache.resilience import spec_from_canonical
        from repro.runcache.sweep import execute_spec

        entries = sorted(self._entries(), key=lambda e: e["digest"])
        if not entries:
            return []
        rng = random.Random(seed)
        chosen = rng.sample(entries, min(sample, len(entries)))
        reports: List[VerifyReport] = []
        for entry in chosen:
            pkl, meta = self._paths(entry["digest"])
            try:
                cached = pkl.read_bytes()
                spec = spec_from_canonical(
                    json.loads(meta.read_text())["spec"]
                )
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
