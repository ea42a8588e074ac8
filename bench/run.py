"""Fixed-time entry point: one workload, one seed, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload is measured for ``S``
seconds of timed repetitions instead of ``bench run``'s fixed counts.
The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.
"""

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.harness import (  # noqa: E402
    DEFAULT_OUT,
    BenchError,
    benchmark_spec,
    end_to_end,
    nonneg_int,
    run_workload,
)
from bench.workloads import DEFINITIONS  # noqa: E402

#: everything, set-ups included, must end well inside 180 seconds
TIME_LIMIT = 170.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True, choices=DEFINITIONS)
    parser.add_argument("--seed", type=nonneg_int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT
    spec = benchmark_spec()
    out = DEFAULT_OUT / f"drive-{os.getpid()}"
    try:
        doc = run_workload(
            args.workload, args.seed, out, seconds=args.seconds,
            trace_dir=out / "trace" if args.trace else None,
            deadline=deadline,
        )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if args.trace:
        from bench.layers import LEDGER

        wanted = spec["per_layer"]
        values = {m["name"]: doc["ledger"].get(m["name"]) for m in wanted}
        units = {m["name"]: LEDGER[m["name"]][0] for m in wanted}
    else:
        wanted = spec["end_to_end"]
        e2e = end_to_end(doc)
        values = {m["name"]: e2e[m["name"]]["value"] for m in wanted}
        units = {m["name"]: e2e[m["name"]]["unit"] for m in wanted}
    missing = [name for name, value in values.items() if value is None]
    if missing:
        print(f"bench: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
