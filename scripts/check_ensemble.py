#!/usr/bin/env python
"""Gate BENCH_ensemble.json: one lockstep R-run engine must be a >=10x
execution-phase win over R one-run engines (the payload's "scalar"
figures) with byte-identical per-run traces and unchanged sweep
semantics.

Checks (stdlib only, exit 0 pass / 1 fail / 2 usage):

* envelope: schema ``repro.ensemble_bench/...``, machine, runs list;
* ``n_runs`` >= ``--min-runs`` (default 100) and one entry per run;
* execution speedup >= ``--min-speedup`` (default 10) and the
  events/s figures consistent with it;
* every run byte-identical between one-run and lockstep execution;
* sweep wiring: every cached artifact byte-equal to a one-run
  ``execute_spec`` run, resweep all hits, every run executed by the
  ensemble in at least one batch.
"""

import argparse
import sys

from schema_utils import check_envelope, fail, load_json

SCHEMA_PREFIX = "repro.ensemble_bench/"
REQUIRED_KEYS = (
    "workload", "steps", "n_runs", "scalar_seconds", "ensemble_seconds",
    "speedup", "identical", "events", "scalar_events_per_s",
    "ensemble_events_per_s", "sweep",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="BENCH_ensemble.json to check")
    parser.add_argument("--min-speedup", type=float, default=10.0)
    parser.add_argument("--min-runs", type=int, default=100)
    args = parser.parse_args()

    payload, err = load_json(args.path)
    if err:
        print(f"check_ensemble: {err}", file=sys.stderr)
        return 2
    err = check_envelope(payload, SCHEMA_PREFIX)
    if err:
        return fail(err)
    missing = [k for k in REQUIRED_KEYS if k not in payload]
    if missing:
        return fail(f"missing keys: {', '.join(missing)}")

    n_runs = payload["n_runs"]
    runs = payload["runs"]
    if n_runs < args.min_runs:
        return fail(f"n_runs {n_runs} < required {args.min_runs}")
    if len(runs) != n_runs:
        return fail(f"runs list has {len(runs)} entries, n_runs={n_runs}")
    bad = [r for r in runs if "seed" not in r or "identical" not in r]
    if bad:
        return fail(f"{len(bad)} run entries missing seed/identical")
    broken = [r["seed"] for r in runs if not r["identical"]]
    if broken or not payload["identical"]:
        return fail(
            f"lockstep traces diverge from one-run for seeds {broken}"
        )

    speedup = payload["speedup"]
    if speedup < args.min_speedup:
        return fail(
            f"execution speedup {speedup:.2f}x < "
            f"required {args.min_speedup:.2f}x"
        )
    if payload["events"] <= 0:
        return fail("no events counted")
    ratio = (
        payload["ensemble_events_per_s"]
        / max(payload["scalar_events_per_s"], 1e-12)
    )
    if abs(ratio - speedup) > 1e-6 * max(speedup, 1.0):
        return fail(
            f"events/s ratio {ratio:.4f} inconsistent with "
            f"speedup {speedup:.4f}"
        )

    sweep = payload["sweep"]
    for key in ("cache_identical", "resweep_all_hits"):
        if not sweep.get(key):
            return fail(f"sweep.{key} is false")
    if sweep.get("ensemble_runs") != n_runs:
        return fail(
            f"sweep ran {sweep.get('ensemble_runs')} runs through "
            f"the ensemble, expected {n_runs}"
        )
    if not sweep.get("ensemble_batches"):
        return fail("sweep executed no ensemble batches")

    print(
        f"PASS: {payload['workload']} x{n_runs}: "
        f"{speedup:.1f}x execution speedup "
        f"({payload['ensemble_events_per_s']:.0f} events/s vs "
        f"{payload['scalar_events_per_s']:.0f}), "
        f"all runs byte-identical, sweep semantics unchanged "
        f"(end-to-end {sweep['speedup']:.1f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
