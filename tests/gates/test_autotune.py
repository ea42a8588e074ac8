"""Autotune gate: the attribution-driven autotuner on Al-1000 at 32
threads on the simulated 4 x Xeon X7560 (3 steps, 1 pilot step) finds
a config that strictly beats the fixed-queue baseline's speedup with a
strictly lower latch-idle share, and both keep their speedup-loss
buckets (``steal_overhead`` included) conserved.  The payload, the
winner's config and the rendered report go under
``benchmarks/out/test_autotune``."""

import json

from repro.runcache import RunCache
from repro.targets import AUTOTUNE_CONSERVATION_TOL
from repro.telemetry import runtime as telemetry_runtime
from repro.telemetry.report import AUTOTUNE_NAME, write_report
from repro.tuning import autotune, winning_config
from tests.gates._checks import assert_envelope, missing

ROW_KEYS = ("config", "label", "sim_seconds", "speedup",
            "latch_idle_share", "buckets", "conservation_error", "steals")
TRIAL_KEYS = ("label", "rung", "steps", "sim_seconds", "kept")


def _assert_conserved(name, row, threads):
    assert not missing(row, ROW_KEYS), name
    assert "steal_overhead" in row["buckets"], name
    assert row["conservation_error"] <= AUTOTUNE_CONSERVATION_TOL, (
        name, row["conservation_error"],
    )
    # the buckets must sum to the gap between the achieved time and
    # the perfectly scaled serial time
    serial = row["speedup"] * row["sim_seconds"]
    gap = row["sim_seconds"] - serial / threads
    total = sum(row["buckets"].values())
    assert abs(total - gap) <= max(1e-6 * row["sim_seconds"], 1e-15), name


def test_autotuner_recovers_al1000(shipped_dir, tmp_path):
    telemetry_runtime.activate(str(shipped_dir), label="autotune")
    try:
        payload = autotune(
            "Al-1000", 32, "x7560x4", steps=3, pilot_steps=1, seed=0,
            cache=RunCache(tmp_path), jobs=1,
        )
    finally:
        telemetry_runtime.deactivate()
    for name, doc in ((AUTOTUNE_NAME, payload),
                      ("winning_config.json", winning_config(payload))):
        (shipped_dir / name).write_text(
            json.dumps(doc, indent=1) + "\n", encoding="utf-8"
        )
    write_report(shipped_dir)

    assert_envelope(payload, "repro.autotune/", runs_key=None)
    assert not missing(payload, (
        "workload", "threads", "steps", "pilot", "candidates", "rungs",
        "trials", "baseline", "winner", "diff",
    ))
    assert payload["candidates"], "no candidates proposed"
    assert payload["trials"], "empty search trajectory"
    for trial in payload["trials"]:
        assert not missing(trial, TRIAL_KEYS), trial
    baseline, winner = payload["baseline"], payload["winner"]
    for name, row in (("baseline", baseline), ("winner", winner)):
        _assert_conserved(name, row, payload["threads"])
    assert winner["speedup"] > baseline["speedup"]
    assert winner["latch_idle_share"] < baseline["latch_idle_share"]
    assert set(baseline["buckets"]) <= set(payload["diff"])
