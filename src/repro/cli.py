"""Command-line interface: ``python -m repro <command>``.

Every experiment in the paper is runnable from the shell:

========== =====================================================
command    regenerates
========== =====================================================
table1     Table I   — benchmark characteristics
table2     Table II  — test machines and memory hierarchies
fig1       Fig. 1    — speedup sweep on the simulated i7 920
fig2       Fig. 2    — thread→core residency heat map
table3     Table III — pinning topologies on the 4x X7560
topology   §V-C      — hwloc-style topology report
run        plain physics: run a workload, print energies,
           optionally write an XYZ trajectory
trace      ground-truth trace + metrics of one simulated run
compare    modeled perf-tool error vs the ground truth (subset
           selectable with --tools)
leaderboard
           tool-accuracy leaderboard: every modeled tool ranked
           by displayed-vs-true error over a workload x machine
           grid (cached sweep); ``--faults`` reruns one cell under
           an injected straggler and reports which tools change
           rank
sweep      journaled, supervised grid sweep: checkpoint every
           spec to an append-only journal (``--journal DIR``),
           resume an interrupted campaign with zero re-execution
           of completed specs (``--resume DIR``); exit 3 when
           specs were quarantined (partial success)
attribute  speedup-loss decomposition (work inflation, idle,
           overhead, GC, injected faults) per phase + flamegraph
           export
chaos      fault-injection sweep: arm fault plans, assert the
           self-healing runtime completes every run
cache      content-addressed run cache: stats | clear | verify |
           salt (trace/attribute/chaos cache by default; with
           --no-cache they sweep through a throwaway store;
           fig1/table3/scorecard always cache)
report     merge a telemetry run directory into a unified
           timeline, a Perfetto trace, a Prometheus exposition,
           and one self-contained HTML sweep report
========== =====================================================

The deterministic commands accept ``--telemetry DIR``: orchestration
spans, cache traffic, and chaos verdicts are emitted into that run
directory (``repro.telemetry/1`` JSONL, one file per process — pool
workers included), ready for ``repro report DIR``.  Telemetry watches
the *runtime* only; simulated traces stay byte-identical with it on
or off.

Usage errors (unknown workload, bad thread count, unreadable fault
plan) exit with code 2 and a one-line message on stderr — never a
traceback.

Each command imports what it uses when it runs, so ``--version``, help
and usage errors load no numpy and none of the simulation packages.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro import __version__
from repro.targets import (
    TABLE1,
    TABLE3_SEED,
    fig1_band_checks,
    fig1_specs,
    fig1_speedups,
    table1_checks,
    table3_specs,
)


def _die(message: str):
    """Usage error: one line on stderr, exit code 2, no traceback."""
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _machine_spec(name: str):
    from repro.machine import MACHINES

    if name not in MACHINES:
        _die(f"unknown machine {name!r}; choose from {sorted(MACHINES)}")
    return MACHINES[name]


def _workload_name(name: str) -> str:
    """Canonical workload key (tolerates 'al1000'-style aliases)."""
    from repro.workloads import BUILDERS, resolve_workload

    try:
        return resolve_workload(name)
    except KeyError:
        _die(f"unknown workload {name!r}; choose from {sorted(BUILDERS)}")


def _positive_int(text: str) -> int:
    """argparse type for --threads and friends (must be >= 1)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _workload_names(names: Optional[List[str]]) -> List[str]:
    from repro.workloads import PAPER_WORKLOADS

    if not names:
        return list(PAPER_WORKLOADS)
    return [_workload_name(n) for n in names]


def _ensure_outdir(path: str) -> str:
    """Create an output directory (and parents) if missing."""
    os.makedirs(path, exist_ok=True)
    return path


def _run_cache(args):
    """The content-addressed run cache, or None under ``--no-cache``
    (a sweep then runs against a throwaway store it removes on return).

    The cache changes wall-clock only — every cached artifact is
    byte-identical to a fresh run (see ``repro cache verify``) — so
    caching is on by default for the deterministic commands.
    """
    if getattr(args, "no_cache", False):
        return None
    from repro.runcache import RunCache

    return RunCache(getattr(args, "cache_dir", None))


def cmd_table1(args) -> None:
    from repro.analysis import table1
    from repro.workloads import BUILDERS

    print(table1([BUILDERS[n]() for n in _workload_names(args.workloads)]))


def cmd_table2(args) -> None:
    from repro.analysis import table2
    from repro.machine import MACHINES

    print(table2(MACHINES.values()))


def cmd_fig1(args) -> None:
    from repro.analysis import ascii_bar_chart
    from repro.runcache import sweep_seconds

    spec = _machine_spec(args.machine)
    threads = _thread_list(args.threads)
    specs = fig1_specs(
        _workload_names(args.workloads), args.machine, threads, args.steps
    )
    print(
        ascii_bar_chart(
            fig1_speedups(specs, sweep_seconds(specs, _run_cache(args))),
            threads,
            title=f"Speedup vs cores on simulated {spec.name}",
        )
    )


def cmd_fig2(args) -> None:
    from repro.core import SimulatedParallelRun, capture_trace
    from repro.machine import SimMachine
    from repro.machine.topology import Topology
    from repro.perftools import VTune
    from repro.workloads import BUILDERS

    spec = _machine_spec(args.machine)
    wl = BUILDERS[_workload_name(args.workload)]()
    trace = capture_trace(wl, args.steps)
    machine = SimMachine(spec, seed=args.seed, migrate_prob=0.3)
    aff = None
    if args.pinned:
        topo = Topology(spec)
        pus = sorted(topo.mask_cores_on_one_socket(
            min(args.threads, spec.cores_per_socket)
        ))
        aff = [[pus[i % len(pus)]] for i in range(args.threads)]
    SimulatedParallelRun(
        trace, wl.system.n_atoms, machine, args.threads,
        affinities=aff, name="wl", repeat=2,
    ).run()
    vtune = VTune(machine)
    workers = [f"wl-pool-worker-{i}" for i in range(args.threads)]
    print(vtune.thread_to_core_plot(workers))
    for w in workers:
        print(f"  {w}: {vtune.migrations(w)} migrations, "
              f"{vtune.cores_visited(w)} cores visited")


def cmd_table3(args) -> None:
    from repro.analysis import table3
    from repro.runcache import sweep_seconds

    specs = table3_specs(args.steps, args.seed)
    seconds = sweep_seconds(list(specs.values()), _run_cache(args))
    print(table3([
        {
            "Number of Cores Used / Topology": label,
            "Runtime (ms, simulated)": f"{s * 1e3:.2f}",
        }
        for label, s in zip(specs, seconds)
    ]))


def cmd_scorecard(args) -> None:
    """Quick end-to-end reproduction check: Table I + Fig. 1 bands,
    scored against the rows of :mod:`repro.targets`."""
    from repro.runcache import sweep_seconds
    from repro.workloads import BUILDERS

    workloads = [BUILDERS[n]() for n in TABLE1]
    checks = table1_checks([wl.characteristics() for wl in workloads])
    specs = fig1_specs(steps=args.steps)
    curves = fig1_speedups(specs, sweep_seconds(specs, _run_cache(args)))
    checks += fig1_band_checks({name: s[-1] for name, s in curves.items()})

    width = max(len(c.label) for c in checks)
    failures = 0
    for c in checks:
        failures += not c.ok
        print(f"{c.label:<{width}}  measured {c.measured:<28} "
              f"paper {c.target:<32} [{'PASS' if c.ok else 'FAIL'}]")
    print(
        f"\n{len(checks) - failures}/{len(checks)} checks pass; run "
        "'pytest benchmarks/ --benchmark-only' for the full suite "
        "(Table II/III, Fig. 2, §IV, §V, ablations, extensions)."
    )
    if failures:
        raise SystemExit(1)


def cmd_topology(args) -> None:
    from repro.perftools import topology_report

    print(topology_report(_machine_spec(args.machine)))


def cmd_run(args) -> None:
    from repro.md.io import XyzTrajectoryWriter
    from repro.workloads import BUILDERS

    wl = BUILDERS[args.workload]()
    engine = wl.make_engine()
    engine.prime()
    writer = None
    if args.xyz:
        writer = XyzTrajectoryWriter(args.xyz, every=args.xyz_every)
        writer.__enter__()
    try:
        for chunk in range(0, args.steps, args.report_every):
            report = None
            for _ in range(min(args.report_every, args.steps - chunk)):
                report = engine.step()
                if writer:
                    writer.frame(engine)
            print(
                f"step {engine.step_count:>6}: "
                f"E_pot {report.potential_energy:>12.3f} eV  "
                f"E_kin {report.kinetic_energy:>9.3f} eV  "
                f"T {engine.system.temperature():>7.0f} K  "
                f"rebuilds {engine.neighbors.rebuild_count:>4}"
            )
    finally:
        if writer:
            writer.__exit__(None, None, None)
            print(f"wrote {writer.frames_written} frames to {args.xyz}")


def cmd_trace(args) -> None:
    """Run a workload under ground-truth tracing; write trace + metrics.

    The artifact bundle (file bytes + summary) comes from one
    ``repro.runcache.sweep`` — through the run cache, or its throwaway
    store under ``--no-cache`` — so the files and the stdout summary
    are byte-identical either way.
    """
    from repro.runcache import sweep, trace_spec

    _machine_spec(args.machine)  # validate before digesting
    spec = trace_spec(
        args.workload, args.steps, args.threads, args.machine, args.seed
    )
    (artifact,) = sweep([spec], _run_cache(args)).artifacts

    _ensure_outdir(args.out)
    paths = {}
    for fname, data in artifact["files"].items():
        paths[fname] = os.path.join(args.out, fname)
        with open(paths[fname], "wb") as fh:
            fh.write(data)
    print(artifact["summary"])
    print(
        f"wrote {paths['trace.json']} "
        f"({artifact['n_trace_events']} trace events), "
        f"{paths['metrics.json']}, {paths['metrics.csv']}"
    )
    print(
        "open the trace in Perfetto (https://ui.perfetto.dev) or "
        "chrome://tracing"
    )


def cmd_compare(args) -> None:
    """Quantify each modeled tool's error against the ground truth."""
    from repro.obs import compare_tools

    _machine_spec(args.machine)
    try:
        report = compare_tools(
            workload=_workload_name(args.workload),
            steps=args.steps,
            n_threads=args.threads,
            machine=args.machine,
            seed=args.seed,
            include_observer_effects=not args.no_observer,
            tools=args.tools,
            cache=_run_cache(args),
        ).render()
    except ValueError as exc:
        _die(str(exc))
    print(report)
    if args.out:
        _ensure_outdir(args.out)
        path = os.path.join(args.out, "compare.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"wrote {path}")


def cmd_leaderboard(args) -> None:
    """Rank every modeled tool by displayed-vs-true error."""
    from repro.obs.leaderboard import (
        DEFAULT_MACHINES,
        DEFAULT_WORKLOADS,
        fault_leaderboard,
        fault_leaderboard_payload,
        leaderboard,
        leaderboard_payload,
    )

    if args.faults:
        if args.workloads and len(args.workloads) > 1:
            _die("--faults scores one cell; pass at most one workload")
        if args.machines and len(args.machines) > 1:
            _die("--faults scores one cell; pass at most one machine")
        workload = _workload_name(
            args.workloads[0] if args.workloads else "Al-1000"
        )
        machine = args.machines[0] if args.machines else "i7-920"
        _machine_spec(machine)
        result = fault_leaderboard(
            workload,
            machine,
            threads=args.threads,
            steps=args.steps,
            seed=args.seed,
            cache=_run_cache(args),
            jobs=args.jobs,
        )
        print(result.render())
        if args.out:
            _ensure_outdir(args.out)
            path = os.path.join(args.out, "leaderboard_faults.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(fault_leaderboard_payload(result), fh, indent=1)
                fh.write("\n")
            print(f"\nwrote {path}")
        return

    workloads = (
        [_workload_name(n) for n in args.workloads]
        if args.workloads
        else list(DEFAULT_WORKLOADS)
    )
    machines = args.machines or list(DEFAULT_MACHINES)
    for name in machines:
        _machine_spec(name)
    try:
        result = leaderboard(
            workloads,
            machines,
            threads=args.threads,
            steps=args.steps,
            seed=args.seed,
            cache=_run_cache(args),
            jobs=args.jobs,
        )
    except ValueError as exc:
        _die(str(exc))
    print(result.render())
    if args.out:
        _ensure_outdir(args.out)
        path = os.path.join(args.out, "leaderboard.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(leaderboard_payload(result), fh, indent=1)
            fh.write("\n")
        print(f"\nwrote {path}")


def _thread_list(text: str) -> List[int]:
    """Parse a ``1,2,4,8``-style thread list (usage error on junk)."""
    try:
        values = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        _die(f"bad --threads {text!r}; expected comma-separated integers")
    if not values or any(v < 1 for v in values):
        _die(f"bad --threads {text!r}; every count must be >= 1")
    return values


def cmd_sweep(args) -> None:
    """Journaled, supervised grid sweep with checkpoint/resume.

    Exit codes: 0 every spec produced an artifact; 3 the sweep
    completed but quarantined permanent failures (partial success);
    2 usage error.
    """
    from repro.runcache import (
        SupervisionPolicy,
        journal_specs,
        load_journal,
        observe_spec,
        sweep,
    )
    from repro.runcache.resilience import JOURNAL_NAME

    if args.resume and args.journal:
        _die("pass --journal DIR or --resume DIR, not both")
    if args.resume:
        grid_flags = [
            name
            for name, value in (
                ("--workloads", args.workloads),
                ("--machine", args.machine),
                ("--threads", args.threads),
                ("--steps", args.steps),
                ("--seed", args.seed),
            )
            if value is not None
        ]
        if grid_flags:
            _die(
                "--resume rebuilds the grid from the journal; drop "
                + " ".join(grid_flags)
            )
        if args.no_cache:
            _die("--resume replays through the run cache; drop --no-cache")
        state = load_journal(args.resume)
        if state is None:
            _die(
                f"no {JOURNAL_NAME} in {args.resume!r}; "
                "start a campaign with --journal first"
            )
        specs = journal_specs(state)
        if not specs:
            _die(f"journal in {args.resume!r} records no specs")
    else:
        machine = args.machine or "i7-920"
        _machine_spec(machine)
        workloads = [
            _workload_name(n)
            for n in (args.workloads or ["salt", "nanocar", "Al-1000"])
        ]
        threads = _thread_list(args.threads or "1,2,4,8")
        steps = 2 if args.steps is None else args.steps
        seed = 0 if args.seed is None else args.seed
        specs = [
            observe_spec(w, steps, t, machine, seed=seed)
            for w in workloads
            for t in threads
        ]

    if args.retries < 0:
        _die(f"--retries must be >= 0, got {args.retries}")
    if args.timeout is not None and args.timeout <= 0:
        _die(f"--timeout must be > 0 seconds, got {args.timeout}")
    policy = SupervisionPolicy(
        max_attempts=args.retries + 1, timeout=args.timeout
    )
    result = sweep(
        specs,
        _run_cache(args),
        jobs=args.jobs,
        journal=args.journal,
        resume=args.resume,
        policy=policy,
    )

    n_unique = len({s.encode() for s in specs})
    print(
        f"swept {len(specs)} specs ({n_unique} unique): "
        f"{result.hits} cache hits, {len(result.executed)} executed"
    )
    if result.resumed:
        print(
            f"  resumed: {result.resumed} specs journaled complete by "
            "the interrupted run, served with zero re-execution"
        )
    if result.ensemble_runs:
        print(
            f"  ensemble: {result.ensemble_runs} runs vectorized in "
            f"{result.ensemble_batches} "
            f"batch{'es' if result.ensemble_batches != 1 else ''}"
        )
    if result.fanout:
        print(f"  fan-out: {result.jobs} jobs"
              + (" (degraded to serial)" if result.degraded else ""))
    if result.retries or result.timeouts or result.pool_restarts:
        print(
            f"  supervision: {result.retries} retries, "
            f"{result.timeouts} timeouts, "
            f"{result.pool_restarts} pool restarts"
        )
    if args.out:
        _ensure_outdir(args.out)
        path = os.path.join(args.out, "sweep.json")
        payload = {
            "schema": "repro.sweepcli/1",
            "n_specs": len(specs),
            "labels": [s.label() for s in specs],
            "hits": result.hits,
            "executed": list(result.executed),
            "resumed": result.resumed,
            "retries": result.retries,
            "timeouts": result.timeouts,
            "pool_restarts": result.pool_restarts,
            "degraded": result.degraded,
            "fanout": result.fanout,
            "jobs": result.jobs,
            "ensemble_batches": result.ensemble_batches,
            "ensemble_runs": result.ensemble_runs,
            "quarantined": [q.to_dict() for q in result.quarantined],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    if not result.ok:
        n = len(result.quarantined)
        print(
            f"quarantined {n} spec{'s' if n != 1 else ''} "
            "(permanent failures; artifacts withheld):"
        )
        for q in result.quarantined:
            carried = " [carried from previous run]" if q.carried else ""
            print(
                f"  {q.label}  attempts={q.attempts}{carried}\n"
                f"    {q.error.splitlines()[0] if q.error else ''}"
            )
        raise SystemExit(3)


def cmd_attribute(args) -> None:
    """Decompose the speedup loss of one workload × thread count."""
    from repro.obs import (
        attribution_csv,
        render_attribution,
        result_to_dict,
        write_folded_stacks,
    )
    from repro.runcache import attribute_grid, attribution_specs, sweep

    _machine_spec(args.machine)  # validate before digesting
    specs = attribution_specs(
        [_workload_name(args.workload)], [args.threads], args.machine,
        steps=args.steps, seed=args.seed,
    )
    result = sweep(specs, _run_cache(args), jobs=args.jobs)
    (res,) = attribute_grid(result.specs, result.artifacts, [args.threads])
    print(render_attribution(res))
    if args.out:
        _ensure_outdir(args.out)
        folded = os.path.join(args.out, "flamegraph.folded")
        shares = None
        total = sum(res.kernel_inflation.values())
        if total > 0:
            shares = {
                k: v / total for k, v in res.kernel_inflation.items()
            }
        n_lines = write_folded_stacks(
            folded,
            res.observation.class_phase_seconds,
            kernel_shares=shares,
            root=res.workload,
        )
        csv_path = os.path.join(args.out, "attribution.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(attribution_csv([res]))
        json_path = os.path.join(args.out, "attribution.json")
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(result_to_dict(res), fh, indent=1)
            fh.write("\n")
        print(
            f"\nwrote {folded} ({n_lines} stacks; feed to flamegraph.pl "
            f"or speedscope), {csv_path}, {json_path}"
        )


def cmd_tune(args) -> None:
    """Autotune executor strategy for one workload × machine × threads."""
    from repro.tuning import autotune, render_tune, winning_config

    _machine_spec(args.machine)
    payload = autotune(
        _workload_name(args.workload),
        args.threads,
        args.machine,
        steps=args.steps,
        pilot_steps=args.pilot_steps,
        seed=args.seed,
        cache=_run_cache(args),
        jobs=args.jobs,
    )
    print(render_tune(payload))
    outputs = []
    if args.out:
        _ensure_outdir(args.out)
        outputs.append(os.path.join(args.out, "autotune.json"))
        outputs.append(os.path.join(args.out, "winning_config.json"))
    if getattr(args, "telemetry", None):
        # drop the payload next to the telemetry so `repro report DIR`
        # renders the search trajectory
        outputs.append(os.path.join(args.telemetry, "autotune.json"))
    for path in outputs:
        doc = (
            winning_config(payload)
            if os.path.basename(path) == "winning_config.json"
            else payload
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    if outputs:
        print(f"\nwrote {', '.join(outputs)}")


def cmd_chaos(args) -> None:
    """Fault-injection sweep: arm plans, assert every run survives."""
    from repro.faults import FaultPlan, chaos_sweep, render_chaos

    spec = _machine_spec(args.machine)
    workloads = [_workload_name(n) for n in args.workloads] if (
        args.workloads
    ) else ["salt", "nanocar", "Al-1000"]
    plans = None
    if args.plan:
        try:
            plan = FaultPlan.load(args.plan)
        except ValueError as exc:
            _die(str(exc))
        plans = {plan.name or os.path.basename(args.plan): plan}
    payload = chaos_sweep(
        workloads,
        args.threads,
        plans=plans,
        spec=spec,
        steps=args.steps,
        seed=args.seed,
        cache=_run_cache(args),
        jobs=args.jobs,
    )
    print(render_chaos(payload))
    if args.out:
        _ensure_outdir(args.out)
        path = os.path.join(args.out, "chaos.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    if not payload["all_ok"]:
        raise SystemExit(1)


def cmd_report(args) -> None:
    """Render one telemetry run directory into the report artifacts."""
    from repro.telemetry.report import write_report

    try:
        paths = write_report(args.run_dir, args.out)
    except ValueError as exc:
        _die(str(exc))
    for key in ("merged", "trace", "metrics", "json", "html"):
        print(f"wrote {paths[key]}")
    print(
        "open report.html in a browser; load trace.json at "
        "https://ui.perfetto.dev"
    )


def cmd_cache(args) -> None:
    """Inspect/manage the content-addressed run cache."""
    from repro.runcache import RunCache, code_version_salt

    if args.cache_cmd is None:
        _die("cache: choose one of stats | clear | verify | salt")
    if args.cache_cmd == "salt":
        # bare digest on stdout — CI uses it as the actions/cache key
        print(code_version_salt())
        return
    cache = RunCache(args.cache_dir)
    if args.cache_cmd == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats.to_dict(), indent=1, sort_keys=True))
        else:
            print(stats.render())
    elif args.cache_cmd == "clear":
        n = cache.clear()
        print(f"cleared {n} entries from {cache.root}")
    elif args.cache_cmd == "verify":
        reports = cache.verify(sample=args.sample, seed=args.seed)
        if not reports:
            print(f"nothing to verify: {cache.root} is empty")
            return
        failed = 0
        for rep in reports:
            status = "ok  " if rep.ok else "FAIL"
            print(f"{status} {rep.digest[:16]}  {rep.label}  {rep.detail}")
            failed += 0 if rep.ok else 1
        print(
            f"verified {len(reports)} cached entr"
            f"{'y' if len(reports) == 1 else 'ies'}: "
            f"{len(reports) - failed} byte-identical, {failed} mismatched"
        )
        if failed:
            raise SystemExit(1)


def _add_cache_flags(p, jobs: bool = True) -> None:
    """``--no-cache`` / ``--cache-dir`` (and ``--jobs``) for the
    deterministic commands that run through the content-addressed
    cache by default."""
    p.add_argument(
        "--no-cache", action="store_true",
        help="bypass the run cache: re-simulate from scratch through "
        "a throwaway store",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="run-cache directory (default: $REPRO_RUNCACHE_DIR or "
        "~/.cache/repro/runcache)",
    )
    if jobs:
        p.add_argument(
            "--jobs", type=_positive_int, default=None,
            help="process-pool width for cache misses "
            "(default: the CPUs in this process's affinity mask)",
        )


def _add_telemetry_flag(p) -> None:
    p.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="emit repro.telemetry/1 runtime telemetry (orchestration "
        "spans, cache traffic) into this run directory; render it "
        "with 'repro report DIR'",
    )


class _WorkloadChoices:
    """``choices`` of a workload argument that imports the builders
    only when argparse checks or lists a name (so such an argument
    needs a ``metavar``: argparse lists a metavar-less argument's
    choices while building the parser)."""

    def __contains__(self, name) -> bool:
        from repro.workloads import BUILDERS

        return name in BUILDERS

    def __iter__(self):
        from repro.workloads import BUILDERS

        return iter(sorted(BUILDERS))


_WORKLOADS = _WorkloadChoices()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Krieger & Strout (ICPP 2010).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("table1", help="benchmark characteristics")
    p.add_argument("--workloads", nargs="*", default=None)
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("table2", help="test machines")
    p.set_defaults(fn=cmd_table2)

    p = sub.add_parser("fig1", help="speedup sweep (cached)")
    p.add_argument("--machine", default="i7-920")
    p.add_argument("--threads", default="1,2,3,4")
    p.add_argument("--steps", type=_positive_int, default=20)
    p.add_argument("--workloads", nargs="*", default=None)
    p.set_defaults(fn=cmd_fig1)

    p = sub.add_parser("fig2", help="thread-to-core residency")
    p.add_argument("--machine", default="i7-920")
    p.add_argument("--workload", default="Al-1000")
    p.add_argument("--threads", type=_positive_int, default=4)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--pinned", action="store_true")
    p.set_defaults(fn=cmd_fig2)

    p = sub.add_parser("table3", help="pinning topologies (cached)")
    p.add_argument("--steps", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=TABLE3_SEED)
    p.set_defaults(fn=cmd_table3)

    p = sub.add_parser(
        "scorecard",
        help="quick paper-vs-measured reproduction check (cached)",
    )
    p.add_argument("--steps", type=_positive_int, default=20)
    p.set_defaults(fn=cmd_scorecard)

    p = sub.add_parser("topology", help="hwloc-style report")
    p.add_argument("--machine", default="x7560x4")
    p.set_defaults(fn=cmd_topology)

    p = sub.add_parser(
        "trace",
        help="run a workload under ground-truth tracing; write a "
        "Chrome/Perfetto trace and a metrics dump",
    )
    p.add_argument(
        "workload", choices=_WORKLOADS, metavar="workload",
        help="one of: %(choices)s",
    )
    p.add_argument("--machine", default="i7-920")
    p.add_argument("--threads", type=_positive_int, default=4)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out", default="trace_out",
        help="output directory for trace.json / metrics.{json,csv}",
    )
    _add_cache_flags(p, jobs=False)
    _add_telemetry_flag(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "compare",
        help="quantify each modeled perf tool's error vs ground truth",
    )
    p.add_argument(
        "--workload", default="salt", choices=_WORKLOADS,
        metavar="WORKLOAD", help="one of: %(choices)s",
    )
    p.add_argument("--machine", default="i7-920")
    p.add_argument("--threads", type=_positive_int, default=4)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--no-observer", action="store_true",
        help="skip the intrusive-tool (JaMON/VisualVM) reruns",
    )
    p.add_argument(
        "--tools", nargs="*", default=None, metavar="TOOL",
        help="restrict the report to these tools (e.g. visualvm-1s "
        "vtune-5ms jamon-monitors visualvm-instr); unknown names are "
        "a usage error",
    )
    p.add_argument(
        "--out", default=None,
        help="also write the report into this directory (created if "
        "missing)",
    )
    _add_cache_flags(p, jobs=False)
    _add_telemetry_flag(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser(
        "leaderboard",
        help="rank every modeled perf tool by displayed-vs-true error "
        "over a workload x machine grid (cached sweep)",
    )
    p.add_argument(
        "--workloads", nargs="*", default=None,
        help="workloads to grid over (default: salt nanocar Al-1000)",
    )
    p.add_argument(
        "--machines", nargs="*", default=None,
        help="machines to grid over (default: i7-920 e5450x2 x7560x4)",
    )
    p.add_argument("--threads", type=_positive_int, default=4)
    p.add_argument("--steps", type=_positive_int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--faults", action="store_true",
        help="score one cell twice — fault-free and under an injected "
        "straggler scaled to the measured runtime — and report which "
        "tools change rank (default cell: Al-1000 on i7-920)",
    )
    p.add_argument(
        "--out", default=None,
        help="write the repro.toolerror/1 payload as leaderboard.json "
        "(or leaderboard_faults.json under --faults) here (directory "
        "created if missing)",
    )
    _add_cache_flags(p)
    _add_telemetry_flag(p)
    p.set_defaults(fn=cmd_leaderboard)

    p = sub.add_parser(
        "sweep",
        help="journaled, supervised grid sweep with crash-safe "
        "checkpoint/resume (exit 3 = completed with quarantined specs)",
    )
    p.add_argument(
        "--workloads", nargs="*", default=None,
        help="workloads to grid over (default: salt nanocar Al-1000)",
    )
    p.add_argument(
        "--machine", default=None,
        help="machine to sweep on (default: i7-920)",
    )
    p.add_argument(
        "--threads", default=None,
        help="comma-separated thread counts (default: 1,2,4,8)",
    )
    p.add_argument("--steps", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--journal", default=None, metavar="DIR",
        help="append every submission/start/finish/failure to "
        "DIR/sweep-journal.jsonl (repro.sweepjournal/1) so an "
        "interrupted sweep can be resumed",
    )
    p.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume the campaign journaled in DIR: the grid is "
        "rebuilt from the journal, completed specs are served from "
        "the cache with zero re-execution, and journaling continues "
        "into the same file (grid flags conflict with --resume)",
    )
    p.add_argument(
        "--retries", type=int, default=2,
        help="retry attempts per spec after the first failure, with "
        "decorrelated-jitter backoff (default 2)",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock limit; expired pool attempts are "
        "killed and retried (default: unlimited)",
    )
    p.add_argument(
        "--out", default=None,
        help="write a repro.sweepcli/1 summary as sweep.json here "
        "(directory created if missing)",
    )
    _add_cache_flags(p)
    _add_telemetry_flag(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "attribute",
        help="decompose the gap between ideal and achieved speedup "
        "into work-inflation / idle / overhead buckets per phase",
    )
    p.add_argument(
        "--workload", default="Al-1000",
        help="workload name (aliases like 'al1000' accepted)",
    )
    p.add_argument("--machine", default="i7-920")
    p.add_argument("--threads", type=_positive_int, default=4)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out", default=None,
        help="write flamegraph.folded / attribution.{csv,json} here "
        "(directory created if missing)",
    )
    _add_cache_flags(p)
    _add_telemetry_flag(p)
    p.set_defaults(fn=cmd_attribute)

    p = sub.add_parser(
        "tune",
        help="autotune executor strategy (queue mode, assignment, "
        "chunking, stealing, pinning) from a pilot run's attribution",
    )
    p.add_argument(
        "--workload", default="Al-1000",
        help="workload name (aliases like 'al1000' accepted)",
    )
    p.add_argument("--machine", default="x7560x4")
    p.add_argument("--threads", type=_positive_int, default=32)
    p.add_argument("--steps", type=_positive_int, default=3)
    p.add_argument(
        "--pilot-steps", type=_positive_int, default=1,
        help="step count of the cheap diagnostic run that proposes "
        "the candidate set",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out", default=None,
        help="write autotune.json / winning_config.json here "
        "(directory created if missing)",
    )
    _add_cache_flags(p)
    _add_telemetry_flag(p)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser(
        "chaos",
        help="sweep fault plans across workloads and assert the "
        "self-healing runtime completes every run deterministically",
    )
    p.add_argument(
        "--workloads", nargs="*", default=None,
        help="workloads to stress (default: salt nanocar Al-1000)",
    )
    p.add_argument("--machine", default="i7-920")
    p.add_argument("--threads", type=_positive_int, default=4)
    p.add_argument("--steps", type=_positive_int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--plan", default=None,
        help="fault-plan JSON file to arm instead of the default "
        "battery (one plan per fault type)",
    )
    p.add_argument(
        "--out", default=None,
        help="write the repro.chaos/1 payload as chaos.json here "
        "(directory created if missing)",
    )
    _add_cache_flags(p)
    _add_telemetry_flag(p)
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "cache",
        help="inspect/manage the content-addressed run cache",
    )
    csub = p.add_subparsers(dest="cache_cmd")
    for name, chelp in (
        ("stats", "entry counts, size, hit rate, code salt"),
        ("clear", "delete every cached entry"),
        ("verify", "re-run sampled entries, assert byte-identity"),
        ("salt", "print the code-version salt (CI cache key)"),
    ):
        cp = csub.add_parser(name, help=chelp)
        if name != "salt":
            cp.add_argument(
                "--cache-dir", default=None,
                help="run-cache directory (default: $REPRO_RUNCACHE_DIR "
                "or ~/.cache/repro/runcache)",
            )
        if name == "stats":
            cp.add_argument(
                "--json", action="store_true",
                help="machine-readable stats on stdout",
            )
        if name == "verify":
            cp.add_argument(
                "--sample", type=_positive_int, default=1,
                help="number of cached entries to re-run (default 1)",
            )
            cp.add_argument("--seed", type=int, default=0)
        cp.set_defaults(fn=cmd_cache, cache_cmd=name)
    p.set_defaults(fn=cmd_cache, cache_cmd=None)

    p = sub.add_parser(
        "report",
        help="render a telemetry run directory: unified timeline, "
        "Perfetto trace, Prometheus metrics, self-contained HTML",
    )
    p.add_argument(
        "run_dir",
        help="telemetry run directory (the --telemetry DIR of a "
        "previous command); speedups, attribution and leaderboard "
        "are read back from the cache entries its sweeps recorded",
    )
    p.add_argument(
        "--out", default=None,
        help="write the artifacts here instead of into the run "
        "directory itself",
    )
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("run", help="run a workload's physics")
    p.add_argument(
        "workload", choices=_WORKLOADS, metavar="workload",
        help="one of: %(choices)s",
    )
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--report-every", type=int, default=50)
    p.add_argument("--xyz", default=None, help="write trajectory here")
    p.add_argument("--xyz-every", type=int, default=10)
    p.set_defaults(fn=cmd_run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "fn", None) is None:
        # no subcommand: print full help (not a traceback), exit code 2
        parser.print_help()
        return 2
    from repro.telemetry import runtime as telemetry_runtime

    if getattr(args, "telemetry", None):
        telemetry_runtime.activate(
            args.telemetry, label=getattr(args, "command", "") or ""
        )
    try:
        args.fn(args)
    except BrokenPipeError:
        # stdout closed early (e.g. piping into `head`) — not an error
        return 0
    finally:
        telemetry_runtime.deactivate()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
