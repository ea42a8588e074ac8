"""The traced pass: host time per layer, measured from outside.

Timers placed inside the code distort what they measure (the LAMMPS
timing note), so the timed repetitions run with telemetry off and this
separate pass gives the per-layer numbers.  The benchmark calls each
layer's public function itself — serially, once per distinct input of
the workload's grid — and wraps every call in its own span; repeated
kernel calls follow MD-Bench's per-kernel method.  Spans stay in memory
and are written as ``repro.telemetry/1`` records when the pass ends.

The pass then runs one ``jobs=1`` repetition (the single-process
baseline, which must reproduce the pool's bytes) and pooled repetitions
alternately without and with ``repro.telemetry.runtime`` active.  The
first traced one writes into the same run directory, so the program's
own ``sweep``/``fanout``/``shard`` spans and ``cache.put``/
``cache.lookup`` events land beside the layer spans; ``repro report``
renders it.

A layer the workload's sweep never reaches is still read once on the
workload's own inputs, so every metric has a value on every workload:
the observe grids' captures go through the ensemble engine as batches
of one, and the capture-only seed ensemble prices, replays, observes
and attributes its first capture at 1 and J threads on the i7-920.
Kernel, fan-out and waste metrics that a grid has no input for are
``None``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench.workloads import PAPER, Workload

#: timed calls per kernel and input; the median is kept
KERNEL_CALLS = 5
#: machine the capture-only grid is probed on
PROBE_MACHINE = "i7-920"
#: untraced/traced sweep pairs the telemetry overhead is the median of
OVERHEAD_PAIRS = 3

#: every per-layer metric: name -> (unit, better)
LEDGER = {
    "workloads.build_s": ("s", "lower"),
    "md.capture_s": ("s", "lower"),
    "md.step_ms": ("ms", "lower"),
    "md.kernel.lj_s": ("s", "lower"),
    "md.kernel.lj_terms": ("count", "lower"),
    "md.kernel.lj_flops_per_byte": ("flop/B", "higher"),
    "md.kernel.coulomb_s": ("s", "lower"),
    "md.kernel.coulomb_terms": ("count", "lower"),
    "md.kernel.coulomb_flops_per_byte": ("flop/B", "higher"),
    "md.kernel.bonded_s": ("s", "lower"),
    "md.kernel.bonded_terms": ("count", "lower"),
    "md.kernel.bonded_flops_per_byte": ("flop/B", "higher"),
    "md.neighbors_s": ("s", "lower"),
    "ensemble.capture_s": ("s", "lower"),
    "ensemble.runs_per_s": ("1/s", "higher"),
    "core.price_s": ("s", "lower"),
    "des.replay_s": ("s", "lower"),
    "des.events": ("count", "lower"),
    "des.events_per_s": ("1/s", "higher"),
    "obs.observe_s": ("s", "lower"),
    "obs.attribute_s": ("s", "lower"),
    "obs.conservation_err": ("s", "lower"),
    "runcache.digest_s": ("s", "lower"),
    "runcache.put_s": ("s", "lower"),
    "runcache.get_s": ("s", "lower"),
    "runcache.artifact_mb": ("MB", "lower"),
    "runcache.hit_ratio": ("ratio", "higher"),
    "runcache.capture_useful_ratio": ("ratio", "higher"),
    "sweep.fanout_s": ("s", "lower"),
    "sweep.shard_p50_s": ("s", "lower"),
    "sweep.shard_max_s": ("s", "lower"),
    "sweep.busy_ratio": ("ratio", "higher"),
    "sweep.serial_s": ("s", "lower"),
    "sweep.host_speedup": ("x", "higher"),
    "sweep.retries": ("count", "lower"),
    "telemetry.overhead_ratio": ("ratio", "lower"),
    "bench.unaccounted_share": ("ratio", "lower"),
}


class SpanLog:
    """Spans kept in memory and written out once, so recording one
    costs two clock reads and no I/O."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[str] = []
        self._serial = 0

    @contextmanager
    def span(self, name: str, **attrs):
        self._serial += 1
        span_id = f"{os.getpid():x}.b{self._serial:x}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.time()
        t0 = time.perf_counter()
        try:
            yield span_id
        finally:
            seconds = time.perf_counter() - t0
            self._stack.pop()
            self.spans.append({
                "name": name, "span_id": span_id, "parent_id": parent,
                "start": start, "end": start + seconds,
                "seconds": seconds, "attrs": attrs,
            })

    def seconds(self, name: str) -> float:
        return sum(s["seconds"] for s in self.spans if s["name"] == name)

    def write(self, run) -> Path:
        """Write every span into a telemetry run directory."""
        from repro.telemetry.schema import TELEMETRY_SCHEMA, encode_line

        pid = os.getpid()
        path = run.root / f"telemetry-{pid}-bench.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for seq, s in enumerate(self.spans):
                fh.write(encode_line({
                    "schema": TELEMETRY_SCHEMA, "kind": "span",
                    "name": s["name"], "pid": pid, "seq": seq,
                    "ts": s["end"], "trace_id": run.trace_id,
                    "span_id": s["span_id"], "parent_id": s["parent_id"],
                    "start": s["start"], "end": s["end"],
                    "attrs": s["attrs"],
                }))
        return path


class _KeepEngine:
    """Workload stand-in for ``capture_trace`` that keeps the engine,
    so the kernel calls run on the captured final state."""

    def __init__(self, workload):
        self.workload = workload
        self.engine = None

    def make_engine(self):
        self.engine = self.workload.make_engine()
        return self.engine


def _median_call(log: SpanLog, name: str, fn, **attrs):
    """``KERNEL_CALLS`` spans around ``fn()``: (median seconds, result)."""
    times = []
    out = None
    for _ in range(KERNEL_CALLS):
        with log.span(name, **attrs):
            out = fn()
        times.append(log.spans[-1]["seconds"])
    return statistics.median(times), out


def _kernel_family(force_name: str) -> str:
    return "bonded" if force_name.startswith("bond") else force_name


def _capture_inputs(wl: Workload) -> list:
    """Distinct physics captures of the grid: (family, steps, seed).
    Observe specs replay the seed-0 capture whatever their seed."""
    if wl.d.observes:
        return [(w, wl.d.steps, 0) for w in PAPER]
    return [(s.workload, s.steps, s.seed) for s in wl.specs]


def _observe_inputs(wl: Workload, jobs: int) -> list:
    """(capture key, threads, machine, machine seed) per replay."""
    if wl.d.observes:
        return [
            ((s.workload, s.steps, 0), s.threads, s.machine, s.seed)
            for s in wl.specs
        ]
    first = wl.specs[0]
    key = (first.workload, first.steps, first.seed)
    return [(key, n, PROBE_MACHINE, wl.seed) for n in sorted({1, jobs})]


def _captures(wl: Workload, log: SpanLog, m: dict) -> dict:
    from repro.core.simulate import capture_trace
    from repro.workloads import BUILDERS

    captures = {}
    kernels: Dict[str, List[float]] = {}
    neighbors = 0.0
    steps_total = 0
    for family, steps, seed in _capture_inputs(wl):
        with log.span("workloads.build", workload=family, seed=seed):
            built = BUILDERS[family](seed=seed)
        keep = _KeepEngine(built)
        with log.span("md.capture", workload=family, steps=steps, seed=seed):
            trace = capture_trace(keep, steps)
        captures[(family, steps, seed)] = (built, trace)
        steps_total += steps
        eng = keep.engine
        uses_nl = any(f.uses_neighbor_list() for f in eng.forces)
        nl = eng.neighbors if uses_nl else None
        for force in eng.forces:
            seconds, res = _median_call(
                log, f"md.kernel.{force.name}",
                lambda: force.compute(
                    eng.system, eng.boundary, nl, eng.system.forces
                ),
                workload=family,
            )
            k = kernels.setdefault(
                _kernel_family(force.name), [0.0, 0, 0.0, 0.0]
            )
            k[0] += seconds
            k[1] += res.terms
            k[2] += res.flops
            k[3] += res.bytes_irregular + res.bytes_regular
        if nl is not None:
            seconds, _ = _median_call(
                log, "md.neighbors",
                lambda: nl.build(eng.system.positions, eng.boundary),
                workload=family,
            )
            neighbors += seconds
    capture_s = log.seconds("md.capture")
    m["workloads.build_s"] = log.seconds("workloads.build")
    m["md.capture_s"] = capture_s
    m["md.step_ms"] = capture_s / steps_total * 1e3
    for family, (seconds, terms, flops, nbytes) in kernels.items():
        if f"md.kernel.{family}_s" in LEDGER:
            m[f"md.kernel.{family}_s"] = seconds
            m[f"md.kernel.{family}_terms"] = terms
            # computed from the kernels' own byte counts, not measured
            m[f"md.kernel.{family}_flops_per_byte"] = (
                flops / nbytes if nbytes else None
            )
    if neighbors:
        m["md.neighbors_s"] = neighbors
    return captures


def _ensemble(captures: dict, log: SpanLog, m: dict) -> None:
    from repro.ensemble import EnsembleUnsupported, ensemble_capture

    groups: Dict[tuple, list] = {}
    for family, steps, seed in captures:
        groups.setdefault((family, steps), []).append(seed)
    runs = 0
    for (family, steps), seeds in groups.items():
        try:
            with log.span(
                "ensemble.capture", workload=family, steps=steps,
                runs=len(seeds),
            ):
                ensemble_capture(family, steps, seeds)
        except EnsembleUnsupported:
            continue
        runs += len(seeds)
    if runs:
        seconds = log.seconds("ensemble.capture")
        m["ensemble.capture_s"] = seconds
        m["ensemble.runs_per_s"] = runs / seconds


def _observe(wl: Workload, captures: dict, jobs: int, log: SpanLog,
             m: dict) -> dict:
    from repro.core.simulate import SimulatedParallelRun
    from repro.machine import MACHINES
    from repro.machine.machine import SimMachine
    from repro.obs.attribution import attribute_observations, observe_run

    observations = {}
    events = 0
    for key, threads, machine, seed in _observe_inputs(wl, jobs):
        built, trace = captures[key]
        n_atoms = built.system.n_atoms
        spec = MACHINES[machine]
        attrs = dict(workload=key[0], threads=threads, machine=machine)
        with log.span("core.price", **attrs):
            sim_machine = SimMachine(spec, seed=seed)
            replay = SimulatedParallelRun(
                trace, n_atoms, sim_machine, threads, name=built.name
            )
            replay.plans()
        with log.span("des.replay", **attrs):
            replay.run()
        events += sim_machine.sim.event_count
        with log.span("obs.observe", **attrs):
            obs = observe_run(
                trace, n_atoms, spec, threads,
                seed=seed, name=built.name, workload=built.name,
            )
        obs.result.machine = None  # as the run cache stores it
        observations[(key, threads, machine, seed)] = obs
    err = 0.0
    for (key, threads, machine, seed), obs in observations.items():
        base = observations[(key, 1, machine, seed)]
        with log.span("obs.attribute", workload=key[0], threads=threads):
            res = attribute_observations(
                obs, base, captures[key][1], machine=MACHINES[machine].name
            )
        err = max(err, res.conservation_error())
    replay_s = log.seconds("des.replay")
    m["core.price_s"] = log.seconds("core.price")
    m["des.replay_s"] = replay_s
    m["des.events"] = events
    m["des.events_per_s"] = events / replay_s
    m["obs.observe_s"] = log.seconds("obs.observe")
    m["obs.attribute_s"] = log.seconds("obs.attribute")
    m["obs.conservation_err"] = err
    return observations


def _store(wl: Workload, captures: dict, observations: dict,
           log: SpanLog, m: dict):
    """Digest, put and get every artifact the grid stores; returns the
    cache they went into."""
    from repro.runcache import RunCache, capture_spec, spec_digest

    if wl.d.observes:
        items = [
            (s, observations[((s.workload, s.steps, 0), s.threads,
                              s.machine, s.seed)])
            for s in wl.specs
        ] + [
            (capture_spec(family, steps), trace)
            for (family, steps, _), (_, trace) in captures.items()
        ]
    else:
        items = [
            (s, captures[(s.workload, s.steps, s.seed)][1])
            for s in wl.specs
        ]
    root = tempfile.mkdtemp(prefix="layers-", dir=wl.scratch)
    cache = RunCache(root)
    for spec, artifact in items:
        # digests are memoized per instance, so digest a fresh one
        fresh = replace(spec)
        with log.span("runcache.digest", kind=spec.kind):
            spec_digest(fresh)
        with log.span("runcache.put", kind=spec.kind):
            cache.put(spec, artifact)
        with log.span("runcache.get", kind=spec.kind):
            cache.get(spec)
    m["runcache.digest_s"] = log.seconds("runcache.digest")
    m["runcache.put_s"] = log.seconds("runcache.put")
    m["runcache.get_s"] = log.seconds("runcache.get")
    return cache


def _fold_program_records(run_dir: Path, jobs: int, m: dict) -> None:
    """Fan-out and cache-waste metrics from the program's own records."""
    from repro.telemetry.merge import load_records

    records, _skipped = load_records(run_dir)
    spans = [r for r in records if r["kind"] == "span"]
    fanout = sum(r["end"] - r["start"] for r in spans if r["name"] == "fanout")
    shards = [r["end"] - r["start"] for r in spans if r["name"] == "shard"]
    if fanout:
        m["sweep.fanout_s"] = fanout
    if shards:
        m["sweep.shard_p50_s"] = statistics.median(shards)
        m["sweep.shard_max_s"] = max(shards)
        if fanout:
            m["sweep.busy_ratio"] = sum(shards) / (jobs * fanout)
    puts = [
        r["attrs"].get("digest") for r in records
        if r["kind"] == "event" and r["name"] == "cache.put"
        and r["attrs"].get("kind") == "capture"
    ]
    if puts:
        m["runcache.capture_useful_ratio"] = len(set(puts)) / len(puts)


def traced_pass(
    wl: Workload,
    run_dir: Path,
    *,
    jobs: int,
    sweep_median: float,
    rep_once,
) -> tuple:
    """Run the traced pass; returns ``(ledger, failed checks, sweeps
    checked)``.

    ``rep_once(jobs)`` runs one repetition and returns ``(rep, wall,
    cpu)``; the ``jobs=1`` and traced sweeps go through it so they are
    timed the same way as the untraced repetitions they are compared
    with.  The telemetry overhead comes from ``OVERHEAD_PAIRS`` untraced
    and traced sweeps run alternately, so a change of host speed during
    the pass cannot pass for overhead; only the first traced sweep's
    records are kept.
    """
    # first imports are not layer time: load every layer up front
    import repro.core.simulate  # noqa: F401
    import repro.ensemble  # noqa: F401
    import repro.obs.attribution  # noqa: F401
    from repro.telemetry import runtime as telemetry_runtime
    from repro.telemetry.emit import TelemetryRun

    shutil.rmtree(run_dir, ignore_errors=True)
    run = TelemetryRun(run_dir, label=f"bench {wl.d.name}")
    log = SpanLog()
    m: Dict[str, Any] = {name: None for name in LEDGER}
    with log.span("bench.serial_pass", workload=wl.d.name) as root_id:
        captures = _captures(wl, log, m)
        _ensemble(captures, log, m)
        observations = _observe(wl, captures, jobs, log, m)
        cache = _store(wl, captures, observations, log, m)
    root = log.spans[-1]
    covered = sum(
        s["seconds"] for s in log.spans if s["parent_id"] == root_id
    )
    m["bench.unaccounted_share"] = 1.0 - covered / root["seconds"]
    m["runcache.artifact_mb"] = cache.stats().total_bytes / 2**20
    shutil.rmtree(cache.root, ignore_errors=True)

    # the single-process baseline, which must reproduce the pool's bytes
    with log.span("bench.serial_sweep"):
        rep, serial_s, _cpu = rep_once(1)
    fails = wl.check(rep, "serial")

    plain, traced = [], []
    for k in range(OVERHEAD_PAIRS):
        rep, wall, _cpu = rep_once(jobs)
        plain.append(wall)
        fails += wl.check(rep, "rep")
        if k == 0:
            into, spans = run, log
        else:
            into = TelemetryRun(tempfile.mkdtemp(dir=wl.scratch))
            spans = SpanLog()
        with spans.span("bench.traced_sweep", jobs=jobs) as sweep_id:
            telemetry_runtime.activate(into, parent_id=sweep_id)
            try:
                rep, wall, _cpu = rep_once(jobs)
            finally:
                telemetry_runtime.deactivate()
        traced.append(wall)
        fails += wl.check(rep, "traced")
        if k == 0:
            m["runcache.hit_ratio"] = rep.result.hit_rate
            m["sweep.retries"] = rep.result.retries
    _fold_program_records(run.root, jobs, m)
    m["sweep.serial_s"] = serial_s
    m["sweep.host_speedup"] = serial_s / sweep_median
    m["telemetry.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    log.write(run)
    return m, fails, 1 + 2 * OVERHEAD_PAIRS


def ledger_rows(ledgers: Dict[str, Optional[dict]]) -> List[str]:
    """The per-layer table: one row per metric, one column per workload."""
    names = list(ledgers)
    width = max(len(n) for n in LEDGER) + 2
    lines = [
        f"{'per-layer metric':<{width}}{'unit':<8}"
        + "".join(f"{n:>15}" for n in names)
    ]
    for metric, (unit, _better) in LEDGER.items():
        cells = []
        for name in names:
            value = (ledgers[name] or {}).get(metric)
            cells.append(f"{'n/a' if value is None else f'{value:.6g}':>15}")
        lines.append(f"{metric:<{width}}{unit:<8}" + "".join(cells))
    return lines
