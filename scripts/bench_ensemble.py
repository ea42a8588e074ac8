#!/usr/bin/env python
"""Gate the vectorized ensemble engine: throughput and byte-identity.

Measures ``--runs`` seeded physics captures of one workload (default
gas-8 at 40 steps, 100 runs — the overhead-bound sweep regime the
ensemble engine targets) two ways:

* **scalar** — each run steps on its own
  :class:`~repro.md.engine.MDEngine`, one run at a time (exactly what
  the sweep's pool workers execute per miss);
* **ensemble** — all runs advance in lockstep through one
  :class:`~repro.ensemble.engine.EnsembleMDEngine`.

The gated metric is aggregate *execution* throughput in events per
second — one event is one priced work term (a force pair / bonded term
/ rebuild candidate / per-atom integrator update) summed over every
step of every run — with engine construction and neighbor-list priming
excluded (both paths pay them identically, per run).  Timings take the
best of ``--reps`` repetitions with GC disabled, because the gate must
hold on noisy shared machines.  Byte-identity is asserted on the
pickled per-run traces.

A further section proves the sweep wiring:

* **sweep** — the seeds swept end-to-end into a fresh cache, where
  they run as one ensemble batch: every cached artifact's bytes must
  equal ``dumps_artifact(execute_spec(spec))``, the scalar reference
  timed one spec at a time, and the resweep must hit for every spec.
  The end-to-end speedup (diluted by per-run build/prime/publication)
  is reported alongside the gated execution-phase number.

The payload (schema ``repro.ensemble_bench/1``) is gated by
``scripts/check_ensemble.py`` (``make ensemble-smoke``): execution
speedup >= 10x, every run byte-identical, sweep semantics unchanged.

Exits 0 on success; usage errors print one line and exit 2 like the
other scripts.
"""

import argparse
import gc
import json
import os
import pickle
import platform
import shutil
import sys
import tempfile
import time

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

SCHEMA = "repro.ensemble_bench/1"

#: pickle protocol used for identity checks — matches the run cache
PROTOCOL = 4


def usage_error(msg: str) -> "SystemExit":
    print(f"bench_ensemble: {msg}", file=sys.stderr)
    return SystemExit(2)


def trace_events(trace) -> int:
    """Total priced work terms across every step of a captured trace."""
    return sum(
        work.terms
        for report in trace
        for work in report.phase_work.values()
    )


def timed_scalar_capture(builder, n_runs, steps):
    """Best-effort scalar baseline: engines built and primed untimed,
    then every run's step loop timed in one block (the same per-run
    work ``execute_spec`` does for a capture miss)."""
    engines = []
    for seed in range(n_runs):
        eng = builder(seed=seed).make_engine()
        eng.prime()
        engines.append(eng)
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    traces = [eng.run(steps) for eng in engines]
    seconds = time.perf_counter() - t0
    gc.enable()
    return max(seconds, 1e-9), traces


def timed_ensemble_capture(builder, n_runs, steps):
    """Ensemble counterpart: construction + prime untimed, the
    vectorized step loop timed."""
    from repro.ensemble.engine import EnsembleMDEngine

    engines = [builder(seed=seed).make_engine() for seed in range(n_runs)]
    ens = EnsembleMDEngine(engines)
    ens.prime()
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    traces = ens.run(steps)
    seconds = time.perf_counter() - t0
    gc.enable()
    return max(seconds, 1e-9), traces


def timed_sweep(specs, cache_dir):
    from repro.runcache import RunCache, sweep

    cache = RunCache(cache_dir)
    t0 = time.perf_counter()
    result = sweep(specs, cache, jobs=1)
    seconds = max(time.perf_counter() - t0, 1e-9)
    return cache, result, seconds


def timed_scalar_reference(specs):
    """Each spec executed on its own, as scalar runs, pickled the way
    the cache stores it."""
    from repro.runcache import dumps_artifact, execute_spec

    t0 = time.perf_counter()
    blobs = [dumps_artifact(execute_spec(spec)) for spec in specs]
    seconds = max(time.perf_counter() - t0, 1e-9)
    return blobs, seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="benchmarks/out/ensemble-smoke.json",
        help="output JSON path (default %(default)s; the committed "
        "number of record is BENCH_ensemble.json)",
    )
    parser.add_argument(
        "--workload", default="gas-8",
        help="gated workload family (default %(default)s)",
    )
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument(
        "--runs", type=int, default=100,
        help="ensemble width: seeds 0..runs-1 (default %(default)s)",
    )
    parser.add_argument(
        "--reps", type=int, default=3,
        help="timing repetitions, best-of (default %(default)s)",
    )
    parser.add_argument(
        "--secondary", default="gas-16,gas-64",
        help="comma-separated workloads measured once, ungated "
             "(default %(default)s; empty string to skip)",
    )
    from repro.telemetry.log import add_verbosity_flags, from_args

    add_verbosity_flags(parser)
    args = parser.parse_args()
    log = from_args("bench_ensemble", args)

    if args.steps < 1:
        raise usage_error(f"--steps must be >= 1, got {args.steps}")
    if args.runs < 2:
        raise usage_error(f"--runs must be >= 2, got {args.runs}")
    if args.reps < 1:
        raise usage_error(f"--reps must be >= 1, got {args.reps}")
    from repro.runcache import code_version_salt
    from repro.runcache.sweep import capture_spec
    from repro.workloads import BUILDERS, resolve_workload

    try:
        name = resolve_workload(args.workload)
    except KeyError:
        raise usage_error(f"unknown workload {args.workload!r}")
    try:
        secondary_names = [
            resolve_workload(w)
            for w in args.secondary.split(",") if w.strip()
        ]
    except KeyError as exc:
        raise usage_error(f"bad --secondary: {exc}")

    def measure(workload, reps):
        """Best-of-``reps`` execution timings + last rep's traces."""
        builder = BUILDERS[workload]
        scalar_s = ens_s = None
        scalar_traces = ens_traces = None
        for _ in range(reps):
            s, scalar_traces = timed_scalar_capture(
                builder, args.runs, args.steps
            )
            scalar_s = s if scalar_s is None else min(scalar_s, s)
            e, ens_traces = timed_ensemble_capture(
                builder, args.runs, args.steps
            )
            ens_s = e if ens_s is None else min(ens_s, e)
        return scalar_s, ens_s, scalar_traces, ens_traces

    # -- gated section: execution-phase throughput + identity ---------
    scalar_seconds, ens_seconds, scalar_traces, ens_traces = measure(
        name, args.reps
    )
    runs = []
    events = 0
    for seed in range(args.runs):
        a = pickle.dumps(scalar_traces[seed], PROTOCOL)
        b = pickle.dumps(ens_traces[seed], PROTOCOL)
        events += trace_events(ens_traces[seed])
        runs.append({"seed": seed, "identical": bool(a == b)})
    identical = all(r["identical"] for r in runs)
    speedup = scalar_seconds / ens_seconds
    log.info(
        "execution phase",
        workload=name,
        scalar_seconds=scalar_seconds,
        ensemble_seconds=ens_seconds,
        speedup=speedup,
        identical=identical,
        events=events,
    )

    # -- ungated: the same measurement at larger sizes ----------------
    secondary = []
    for wl in secondary_names:
        s, e, _, _ = measure(wl, 1)
        secondary.append(
            {"workload": wl, "scalar_seconds": s,
             "ensemble_seconds": e, "speedup": s / e}
        )
        log.info("secondary", workload=wl, speedup=s / e)

    # -- sweep wiring: byte-equal caches, hit-on-resweep --------------
    specs = [
        capture_spec(name, args.steps, seed=seed)
        for seed in range(args.runs)
    ]
    tmp_root = tempfile.mkdtemp(prefix="repro-ensemble-bench-")
    try:
        reference, sweep_scalar_seconds = timed_scalar_reference(specs)
        ens_cache, ens_result, sweep_ens_seconds = timed_sweep(
            specs, os.path.join(tmp_root, "ensemble")
        )
        cache_identical = all(
            ens_cache.get_bytes(s) == blob
            for s, blob in zip(specs, reference)
        )
        _, resweep, _ = timed_sweep(
            specs, os.path.join(tmp_root, "ensemble")
        )
        resweep_all_hits = resweep.hits == len(specs)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    payload = {
        "schema": SCHEMA,
        # host wall time, not a simulated machine
        "machine": f"host {platform.machine()} ({os.cpu_count()} CPUs)",
        "workload": name,
        "steps": args.steps,
        "n_runs": args.runs,
        "reps": args.reps,
        "salt": code_version_salt(),
        "scalar_seconds": scalar_seconds,
        "ensemble_seconds": ens_seconds,
        "speedup": speedup,
        "identical": bool(identical),
        "events": events,
        "scalar_events_per_s": events / scalar_seconds,
        "ensemble_events_per_s": events / ens_seconds,
        "runs": runs,
        "secondary": secondary,
        "sweep": {
            "scalar_seconds": sweep_scalar_seconds,
            "ensemble_seconds": sweep_ens_seconds,
            "speedup": sweep_scalar_seconds / sweep_ens_seconds,
            "cache_identical": bool(cache_identical),
            "resweep_all_hits": bool(resweep_all_hits),
            "ensemble_batches": ens_result.ensemble_batches,
            "ensemble_runs": ens_result.ensemble_runs,
        },
    }

    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    log.info(
        "sweep wiring",
        speedup=payload["sweep"]["speedup"],
        cache_identical=cache_identical,
        resweep_all_hits=resweep_all_hits,
    )
    log.info("summary", out=args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
