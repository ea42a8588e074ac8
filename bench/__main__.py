"""``python -m bench``: run the benchmark or compare runs.

    PYTHONPATH=src python -m bench run --seed 0 --out DIR
    PYTHONPATH=src python -m bench compare --parent RUN... --change RUN...

``measure`` is the per-workload process the harness spawns.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from bench.harness import (
    DEFAULT_OUT,
    RESULTS_SCHEMA,
    BenchError,
    benchmark_spec,
    end_to_end,
    format_end_to_end,
    nonneg_int,
    run_workload,
)
from bench.workloads import DEFINITIONS

#: per-repetition readings kept in results.json: scaled to the reference
#: host speed, raw, and the calibration times between them
SAMPLES = (
    "sweep_s", "cpu_s", "setup_s",
    "sweep_raw_s", "cpu_raw_s", "setup_raw_s", "cal_s",
)


def cmd_run(args) -> int:
    from bench.layers import ledger_rows

    out = args.out.resolve()
    results = {
        "schema": RESULTS_SCHEMA, "seed": args.seed, "smoke": args.smoke,
        "host": None, "workloads": {},
    }
    ledgers = {}
    failed = 0
    for name, d in DEFINITIONS.items():
        reps = d.smoke().reps if args.smoke else d.reps
        try:
            doc = run_workload(
                name, args.seed, out / name, reps=reps,
                trace_dir=out / "trace" / name, smoke=args.smoke,
            )
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        shutil.rmtree(out / name, ignore_errors=True)
        e2e = end_to_end(doc)
        print("\n".join(format_end_to_end(name, e2e)), flush=True)
        results["host"] = doc["host"]
        results["workloads"][name] = {
            "jobs": doc["jobs"],
            "end_to_end": e2e,
            "samples": {k: doc[k] for k in SAMPLES},
            "per_layer": doc["ledger"],
            "checks": doc["checks"],
            "attempted": doc["attempted"],
            "failed": doc["failed"],
        }
        ledgers[name] = doc["ledger"]
        failed += doc["failed"]
    path = out / "results.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print()
    print("\n".join(ledger_rows(ledgers)))
    print(f"\nwrote {path}; traced passes under {out / 'trace'}")
    if failed:
        print(f"bench: {failed} failed checks", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args) -> int:
    from bench.compare import compare, detail_rows, format_rows, load_run

    parents = [load_run(p) for p in args.parent]
    changes = [load_run(p) for p in args.change]
    if len(parents) != len(changes) or len(parents) < 10:
        print(
            f"bench: {len(parents)} parent and {len(changes)} change runs; "
            "verdicts pair them in order and want at least ten pairs",
            file=sys.stderr,
        )
    spec = benchmark_spec()
    rows = compare(parents, changes, spec)
    print("\n".join(format_rows(rows)))
    print()
    print("\n".join(detail_rows(parents, changes, spec)))
    return int(any("regressed" in row.values() for row in rows))


def cmd_measure(args) -> int:
    from bench.measure import measure, pool_width

    d = DEFINITIONS[args.workload]
    doc = measure(
        d.smoke() if args.smoke else d,
        args.seed,
        args.out / "scratch",
        jobs=pool_width(),
        spawned_at=args.spawned_at,
        reps=args.reps,
        seconds=args.seconds,
        trace_dir=args.trace_dir,
        setup_only=args.setup_only,
    )
    (args.out / "result.json").write_text(json.dumps(doc))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="Host-time benchmark of repro sweeps.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser(
        "run", help="measure every workload and print every metric"
    )
    run.add_argument("--seed", type=nonneg_int, default=0)
    run.add_argument("--out", type=Path, default=DEFAULT_OUT)
    run.add_argument(
        "--smoke", action="store_true",
        help="tiny steps and reps, for the benchmark's own tests; "
        "never compare smoke runs",
    )
    run.set_defaults(fn=cmd_run)

    cmp = sub.add_parser(
        "compare", help="verdict per (end-to-end metric, workload)"
    )
    cmp.add_argument("--parent", type=Path, nargs="+", required=True)
    cmp.add_argument("--change", type=Path, nargs="+", required=True)
    cmp.set_defaults(fn=cmd_compare)

    m = sub.add_parser("measure", help=argparse.SUPPRESS)
    m.add_argument("--workload", required=True, choices=DEFINITIONS)
    m.add_argument("--seed", type=nonneg_int, required=True)
    m.add_argument("--out", type=Path, required=True)
    m.add_argument("--spawned-at", type=float, required=True)
    m.add_argument("--reps", type=int)
    m.add_argument("--seconds", type=float, default=0.0)
    m.add_argument("--trace-dir", type=Path)
    m.add_argument("--setup-only", action="store_true")
    m.add_argument("--smoke", action="store_true")
    m.set_defaults(fn=cmd_measure)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
