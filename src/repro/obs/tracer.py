"""The Tracer: collect kernel trace events and build task spans.

A :class:`Tracer` subscribes to a simulator's event bus
(:meth:`~repro.des.simulator.Simulator.subscribe`) and accumulates the
raw :class:`~repro.des.trace.TraceEvent` stream.  After (or during) a
run it can assemble per-task :class:`TaskSpan` records — the
enqueue → dequeue → run → complete lifecycle of every
:class:`~repro.concurrent.simexec.SimTask`, with worker/PU attribution
and queue-wait breakdown — which is exactly the ground truth none of
the paper's tools (JaMON, VisualVM, VTune) could record without
perturbing the program.

Spans and phase windows are assembled by one :class:`SpanBuilder`.
Attribution attaches it to the bus directly, so spans grow as the
events arrive and no stream is kept; :class:`Tracer` feeds it its
recorded stream.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.des.trace import TraceEvent, serialize_events

Interval = Tuple[float, float]

#: the trace-bus kinds a :class:`SpanBuilder` reads: the task
#: lifecycle, the phase markers, and the fault and steal events
#: attribution classifies (none is a firehose kind)
OBSERVED_KINDS = frozenset({
    "task.enqueue", "task.dequeue", "task.start", "task.end",
    "phase.begin", "phase.end",
    "worker.death", "fault.inject", "task.reissue",
    "steal.attempt", "steal.success", "steal.miss",
})


@dataclass(slots=True)
class PhaseWindow:
    """One master-side phase execution: submit → latch trip.

    Emitted by the replay master as ``phase.begin`` / ``phase.end``
    marker pairs; ``step`` is the global timestep index of the window.
    An unpaired ``phase.begin`` (run ended mid-phase) yields a window
    with ``end is None``.
    """

    name: str
    step: int
    begin: float
    end: Optional[float] = None

    @property
    def complete(self) -> bool:
        return self.end is not None

    @property
    def seconds(self) -> float:
        """Wall (simulated) duration of the window; 0 if unfinished."""
        return (self.end - self.begin) if self.end is not None else 0.0


class TaskSpan:
    """The complete lifecycle of one executed task.

    Times are simulated seconds; ``queue_wait`` is dequeue minus
    enqueue, ``exec_time`` is complete minus start (includes the
    memory/cache behaviour of the burst, excludes instrumentation
    prologue cost before the start mark).
    """

    __slots__ = (
        "uid", "label", "worker", "pu",
        "enqueued", "dequeued", "started", "finished", "queue",
    )

    def __init__(self, uid: str):
        self.uid = uid
        self.label: str = ""
        self.worker: Optional[int] = None
        self.pu: Optional[int] = None
        self.enqueued: Optional[float] = None
        self.dequeued: Optional[float] = None
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.queue: str = ""

    @property
    def complete(self) -> bool:
        """True when the whole enqueue→complete lifecycle was observed."""
        return None not in (
            self.enqueued, self.dequeued, self.started, self.finished
        )

    @property
    def queue_wait(self) -> float:
        """Seconds the task sat in the work queue."""
        if self.enqueued is None or self.dequeued is None:
            return 0.0
        return self.dequeued - self.enqueued

    @property
    def exec_time(self) -> float:
        """Seconds from task start to completion on the worker."""
        if self.started is None or self.finished is None:
            return 0.0
        return self.finished - self.started

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TaskSpan({self.uid!r}, label={self.label!r}, "
            f"worker={self.worker}, exec={self.exec_time:.6g})"
        )


class SpanBuilder:
    """Task spans, phase windows and fault/steal marks, built as the
    :data:`OBSERVED_KINDS` events arrive.

    :meth:`attach` subscribes one handler per kind, so the bus hands
    each event straight to its handler and keeps nothing else;
    :meth:`feed` takes one recorded event (how :class:`Tracer` builds
    spans from its buffer; a ``task.*`` kind without a handler still
    opens its subject's span).  After the run:

    * :meth:`spans` — every task's span in enqueue order (first
      ``task.*`` event per uid), incomplete ones included;
    * :attr:`windows` — phase windows in begin order, from
      ``phase.begin`` / ``phase.end`` pairs (an unpaired begin keeps
      ``end is None``);
    * :attr:`death_time` — worker index → time of its ``worker.death``;
    * :attr:`loss_windows` — (lost, re-issued) time of each task a
      ``task_loss`` fault dropped and the watchdog re-issued, in
      re-issue order; :attr:`loss_start` the ones never re-issued;
    * :attr:`steal_windows` — probing worker → (attempt, outcome)
      windows; :attr:`steal_open` the attempts with no outcome yet.
    """

    def __init__(self):
        # a dict keeps its first-insertion order: the enqueue order
        self._spans: Dict[str, TaskSpan] = {}
        self.windows: List[PhaseWindow] = []
        self._open_windows: Dict[str, PhaseWindow] = {}
        self.death_time: Dict[int, float] = {}
        self.loss_start: Dict[str, float] = {}
        self.loss_windows: List[Interval] = []
        self.steal_open: Dict[str, float] = {}
        self.steal_windows: Dict[str, List[Interval]] = {}
        self._handlers = {
            "task.enqueue": self._enqueue,
            "task.dequeue": self._dequeue,
            "task.start": self._start,
            "task.end": self._end,
            "task.reissue": self._reissue,
            "phase.begin": self._phase_begin,
            "phase.end": self._phase_end,
            "worker.death": self._death,
            "fault.inject": self._fault,
            "steal.attempt": self._steal_attempt,
            "steal.success": self._steal_outcome,
            "steal.miss": self._steal_outcome,
        }
        self._sim = None

    # -- subscription ----------------------------------------------------

    def attach(self, sim) -> "SpanBuilder":
        """Subscribe each handler to its kind; returns self."""
        if self._sim is not None:
            raise ValueError("span builder already attached")
        for kind, fn in self._handlers.items():
            sim.subscribe(fn, kinds=(kind,))
        self._sim = sim
        return self

    def detach(self) -> None:
        """Unsubscribe every handler (what was built is kept)."""
        if self._sim is not None:
            for fn in self._handlers.values():
                self._sim.unsubscribe(fn)
            self._sim = None

    def feed(self, event: TraceEvent) -> None:
        """Take one event of any kind; kinds not read are ignored."""
        fn = self._handlers.get(event.kind)
        if fn is not None:
            fn(event)
        elif event.kind.startswith("task."):
            self._span(event.subject)

    def spans(self) -> List[TaskSpan]:
        """Every span so far, in enqueue order."""
        return list(self._spans.values())

    # -- handlers --------------------------------------------------------

    def _span(self, uid: str) -> TaskSpan:
        span = self._spans.get(uid)
        if span is None:
            span = self._spans[uid] = TaskSpan(uid)
        return span

    def _enqueue(self, e: TraceEvent) -> None:
        span = self._span(e.subject)
        span.enqueued = e.time
        span.label = e.arg("label", "") or ""
        span.queue = e.arg("queue", "") or ""

    def _dequeue(self, e: TraceEvent) -> None:
        span = self._span(e.subject)
        span.dequeued = e.time
        span.worker = e.arg("worker")

    def _start(self, e: TraceEvent) -> None:
        self._span(e.subject).started = e.time

    def _end(self, e: TraceEvent) -> None:
        span = self._span(e.subject)
        span.finished = e.time
        span.pu = e.arg("pu")

    def _reissue(self, e: TraceEvent) -> None:
        self._span(e.subject)
        t_lost = self.loss_start.pop(e.subject, None)
        if t_lost is not None:
            self.loss_windows.append((t_lost, e.time))

    def _phase_begin(self, e: TraceEvent) -> None:
        w = PhaseWindow(
            name=e.subject, step=int(e.arg("step", -1)), begin=e.time
        )
        self.windows.append(w)
        self._open_windows[e.subject] = w

    def _phase_end(self, e: TraceEvent) -> None:
        w = self._open_windows.pop(e.subject, None)
        if w is not None:
            w.end = e.time

    def _death(self, e: TraceEvent) -> None:
        self.death_time[int(e.subject.rsplit("-", 1)[1])] = e.time

    def _fault(self, e: TraceEvent) -> None:
        if e.subject == "task_loss":
            uid = e.arg("uid", "")
            if uid:
                self.loss_start[uid] = e.time

    def _steal_attempt(self, e: TraceEvent) -> None:
        self.steal_open[e.subject] = e.time

    def _steal_outcome(self, e: TraceEvent) -> None:
        t0 = self.steal_open.pop(e.subject, None)
        if t0 is not None:
            self.steal_windows.setdefault(e.subject, []).append(
                (t0, e.time)
            )


class Tracer:
    """Passive subscriber that records a simulator's event stream.

    Usage::

        tracer = Tracer()
        tracer.attach(machine.sim)
        ...  # run the simulation
        tracer.detach()
        spans = tracer.task_spans()

    ``Tracer(kinds=...)`` records only the named kinds, in stream order
    (the subsequence of what a full tracer records); the bus refuses a
    filter that names a firehose kind
    (:func:`~repro.des.simulator.is_firehose_kind`).

    Attaching costs the simulation nothing in *simulated* time — the
    bus is observation-only — so a traced run and an untraced run have
    identical timestamps (enforced by ``tests/obs/test_bus.py``).
    """

    def __init__(self, kinds: Optional[Iterable[str]] = None):
        self.events: List[TraceEvent] = []
        #: the recorded kinds, or None for the full stream
        self.kinds = frozenset(kinds) if kinds is not None else None
        self._sim = None

    # -- subscription ----------------------------------------------------

    def attach(self, sim) -> "Tracer":
        """Subscribe to a simulator's bus; returns self for chaining."""
        if self._sim is not None:
            raise ValueError("tracer already attached")
        # subscribe the buffer's bound append directly: recording one
        # event is then a single list append with no wrapper frame
        sim.subscribe(self.events.append, kinds=self.kinds)
        self._sim = sim
        return self

    def detach(self) -> None:
        """Unsubscribe from the simulator (events are kept)."""
        if self._sim is not None:
            self._sim.unsubscribe(self.events.append)
            self._sim = None

    # -- queries ---------------------------------------------------------

    def events_of(self, kind: str) -> List[TraceEvent]:
        """All recorded events of one kind (e.g. ``"task.end"``)."""
        return [e for e in self.events if e.kind == kind]

    def counts_by_kind(self) -> Dict[str, int]:
        """Histogram of event kinds seen so far."""
        return dict(Counter(e.kind for e in self.events))

    def serialize(self) -> bytes:
        """Canonical byte encoding of the stream (determinism checks)."""
        return serialize_events(self.events)

    def _built(self) -> SpanBuilder:
        builder = SpanBuilder()
        feed = builder.feed
        for e in self.events:
            feed(e)
        return builder

    def task_spans(self) -> List[TaskSpan]:
        """Assemble task spans from the ``task.*`` events, in enqueue
        order.  Incomplete spans (task still queued at the end of the
        run) are included with their observed fields."""
        return self._built().spans()

    def phase_windows(self) -> List[PhaseWindow]:
        """The master's phase executions in begin order, assembled from
        the ``phase.begin`` / ``phase.end`` marker pairs the replay
        emits around every submit → latch-trip window."""
        return self._built().windows

    def fault_windows(self) -> List[dict]:
        """Realized faults from the ``fault.*`` bus events, in injection
        order: ``{"kind", "start", "end", ...args}`` dicts.  Point
        faults (``fault.inject``) have ``end == start``; a windowed
        fault whose ``fault.end`` never arrived (run ended inside the
        window) has ``end is None``."""
        out: List[dict] = []
        open_windows: Dict[tuple, dict] = {}

        def key(e) -> tuple:
            args = dict(e.args)
            # pu/lock disambiguate concurrent windows of the same kind
            return (e.subject, args.get("pu"), args.get("lock"))

        for e in self.events:
            if e.kind == "fault.inject":
                w = {"kind": e.subject, "start": e.time, "end": e.time}
                w.update(dict(e.args))
                out.append(w)
            elif e.kind == "fault.begin":
                w = {"kind": e.subject, "start": e.time, "end": None}
                w.update(dict(e.args))
                out.append(w)
                open_windows[key(e)] = w
            elif e.kind == "fault.end":
                w = open_windows.pop(key(e), None)
                if w is not None:
                    w["end"] = e.time
        return out

    def gc_windows(self) -> List[Tuple[float, float]]:
        """(start, end) of every stop-the-world GC pause the replay
        injected (``gc.pause`` events carry the pause duration)."""
        return [
            (e.time, e.time + float(e.arg("seconds", 0.0)))
            for e in self.events
            if e.kind == "gc.pause"
        ]

    def latch_waits(self) -> List[tuple]:
        """Skew of every latch trip (last minus first arrival), in trip
        order, as ``(trip_time, latch_name, skew)`` tuples — the
        latch-wait component of each phase barrier."""
        return [
            (e.time, e.subject, e.arg("skew", 0.0))
            for e in self.events
            if e.kind == "latch.trip"
        ]
