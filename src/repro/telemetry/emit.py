"""The structured JSONL emitter: spans, events, metric samples.

A :class:`TelemetryRun` is a run directory; each process that emits
into it owns exactly one ``telemetry-<pid>.jsonl`` file, appended one
record per line with a single ``os.write`` per record (the file is
opened ``O_APPEND``, so concurrent processes — and threads behind the
emitter's lock — can never tear or interleave lines).  The directory's
``run.json`` manifest carries the trace id every emitter joins, which
is how a process-pool fan-out becomes one coherent trace: the parent
creates the run, pool workers open it and inherit its trace id plus an
explicit parent span id.

Measurement must be low-overhead by construction (JXPerf's lesson):
with no run active the module-global :data:`NULL_EMITTER` absorbs
every call as a constant-time no-op, and an active emitter's cost is
one ``json.dumps`` + one syscall per *orchestration-level* record —
telemetry never touches the simulated machine, so simulated traces
are byte-identical with telemetry on or off.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.telemetry.schema import TELEMETRY_SCHEMA, encode_line

MANIFEST_NAME = "run.json"
FILE_PREFIX = "telemetry-"


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return uuid.uuid4().hex


def read_manifest(root: Union[str, os.PathLike]) -> Optional[dict]:
    """A run directory's manifest, or None when it has no readable one
    with a trace id.  Reads only: nothing is created."""
    try:
        doc = json.loads((Path(root) / MANIFEST_NAME).read_text())
    except (OSError, ValueError):
        return None
    if isinstance(doc, dict) and doc.get("trace_id"):
        return doc
    return None


class TelemetryRun:
    """A telemetry run directory (manifest + per-process JSONL files).

    Creating the object is idempotent: the first creator writes the
    manifest (trace id, label, schema); later openers — pool workers,
    the merge step, ``repro report`` — load it.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        *,
        label: str = "",
        trace_id: Optional[str] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        manifest = self.root / MANIFEST_NAME
        doc = read_manifest(self.root)
        if doc is not None:
            self.trace_id = str(doc["trace_id"])
            self.label = str(doc.get("label", ""))
        else:
            self.trace_id = trace_id or new_trace_id()
            self.label = label
            # pool workers can open a manifest-less run concurrently
            # (the parent swept with no telemetry active), so publish
            # via a per-process temp name and an atomic
            # first-writer-wins create; losers adopt the winner's
            # trace id so the fan-out still forms one coherent trace
            tmp = manifest.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(
                json.dumps(
                    {
                        "schema": TELEMETRY_SCHEMA,
                        "trace_id": self.trace_id,
                        "label": self.label,
                        "created": time.time(),
                    },
                    indent=1,
                )
                + "\n"
            )
            try:
                os.link(tmp, manifest)
            except FileExistsError:
                doc = read_manifest(self.root)
                if doc is not None:
                    self.trace_id = str(doc["trace_id"])
                    self.label = str(doc.get("label", ""))
            except OSError:
                # filesystem without hard links: keep the old rename
                # (last writer wins; no crash either way)
                os.replace(tmp, manifest)
            finally:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass


class SpanHandle:
    """Context manager for one open span; carries its id for children."""

    __slots__ = ("_emitter", "name", "span_id", "parent_id", "attrs", "start")

    def __init__(self, emitter, name: str, parent_id, attrs):
        self._emitter = emitter
        self.name = name
        self.span_id = emitter._next_span_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self.start = time.time()

    def __enter__(self) -> "SpanHandle":
        self._emitter._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs = dict(self.attrs, error=exc_type.__name__)
        self._emitter._pop(self)


class _NullSpan:
    """The span handle the null emitter hands out."""

    span_id = None
    parent_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class NullEmitter:
    """Telemetry sink for the disabled state: every call is a no-op."""

    trace_id = None
    run = None

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def counter(self, name: str, value: float = 1.0, **labels) -> None:
        pass

    def gauge(self, name: str, value: float, **labels) -> None:
        pass

    def close(self) -> None:
        pass


_NULL_SPAN = _NullSpan()
NULL_EMITTER = NullEmitter()


class TelemetryEmitter:
    """Append-only JSONL writer for one process of one telemetry run.

    Thread-safe: records are framed under a lock and written with a
    single ``os.write`` to an ``O_APPEND`` descriptor, so lines are
    never torn even with other processes appending to sibling files in
    the same run.
    """

    def __init__(
        self,
        run: Union[TelemetryRun, str, os.PathLike],
        *,
        parent_id: Optional[str] = None,
        label: str = "",
    ):
        self.run = (
            run
            if isinstance(run, TelemetryRun)
            else TelemetryRun(run, label=label)
        )
        self.trace_id = self.run.trace_id
        self.pid = os.getpid()
        #: parent span id inherited from the process that spawned us
        self.root_parent_id = parent_id
        self._path = self.run.root / f"{FILE_PREFIX}{self.pid}.jsonl"
        self._fd: Optional[int] = os.open(
            self._path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
        )
        self._lock = threading.Lock()
        self._seq = 0
        self._span_serial = 0
        self._stack: List[SpanHandle] = []

    # -- plumbing --------------------------------------------------------

    def _next_span_id(self) -> str:
        with self._lock:
            self._span_serial += 1
            return f"{self.pid:x}.{self._span_serial:x}"

    def _current_parent(self) -> Optional[str]:
        return (
            self._stack[-1].span_id if self._stack else self.root_parent_id
        )

    def _emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            if self._fd is None:  # closed: drop silently, never raise
                return
            record["schema"] = TELEMETRY_SCHEMA
            record["pid"] = self.pid
            record["seq"] = self._seq
            self._seq += 1
            os.write(self._fd, encode_line(record).encode("utf-8"))

    def _push(self, handle: SpanHandle) -> None:
        self._stack.append(handle)

    def _pop(self, handle: SpanHandle) -> None:
        if handle in self._stack:
            self._stack.remove(handle)
        end = time.time()
        self._emit(
            {
                "kind": "span",
                "name": handle.name,
                "ts": end,
                "trace_id": self.trace_id,
                "span_id": handle.span_id,
                "parent_id": handle.parent_id,
                "start": handle.start,
                "end": end,
                "attrs": _clean_attrs(handle.attrs),
            }
        )

    # -- the public surface ----------------------------------------------

    def span(self, name: str, **attrs) -> SpanHandle:
        """Open a span; closing it (context-manager exit) emits it."""
        return SpanHandle(self, name, self._current_parent(), attrs)

    def event(self, name: str, **attrs) -> None:
        """Emit a point event attached to the innermost open span."""
        self._emit(
            {
                "kind": "event",
                "name": name,
                "ts": time.time(),
                "trace_id": self.trace_id,
                "span_id": self._current_parent(),
                "attrs": _clean_attrs(attrs),
            }
        )

    def counter(self, name: str, value: float = 1.0, **labels) -> None:
        """Emit one counter increment sample."""
        self._sample(name, "counter", value, labels)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Emit one absolute gauge sample."""
        self._sample(name, "gauge", value, labels)

    def _sample(self, name, metric_type, value, labels) -> None:
        self._emit(
            {
                "kind": "metric",
                "name": name,
                "ts": time.time(),
                "metric_type": metric_type,
                "value": float(value),
                "labels": {k: str(v) for k, v in labels.items()},
            }
        )

    def close(self) -> None:
        """Close the underlying file; later emissions are dropped."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


def _clean_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-safe attrs: scalars pass, everything else is repr()ed."""
    out: Dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out
