"""Chaos gate: ``repro chaos --steps 2`` runs every fault plan of the
default battery plus the fault-free control on every paper workload,
and every run completes deterministically with its MD invariants
intact."""

from repro.cli import main
from tests.gates._checks import assert_envelope, load_json, missing

RUN_KEYS = {
    "workload", "plan", "threads", "steps", "ok", "completed",
    "physics", "deterministic", "reissued", "dead_workers",
    "tasks_enqueued", "tasks_completed", "baseline_seconds",
    "faulted_seconds",
}


def test_every_plan_deterministic_and_complete(tmp_path):
    main(["chaos", "--steps", "2", "--out", str(tmp_path)])
    payload = load_json(tmp_path / "chaos.json")
    assert_envelope(payload, "repro.chaos/")
    for run in payload["runs"]:
        label = f"{run.get('workload')}/{run.get('plan')}"
        assert run.get("ok"), f"{label}: {run.get('error') or run}"
        assert not missing(run, RUN_KEYS), label
        physics = run["physics"]
        assert physics["energy_ok"] and physics["atoms_ok"], label
        assert run["deterministic"], f"{label}: replays differ"
        assert run["tasks_completed"] == run["tasks_enqueued"], label
        if run["dead_workers"]:
            assert run["reissued"] or run["tasks_completed"], label
    covered = {(r["workload"], r["plan"]) for r in payload["runs"]}
    expected = set(payload["plans"]) | {"none"}
    for workload in payload["workloads"]:
        seen = {p for w, p in covered if w == workload}
        assert seen >= expected, f"{workload}: {sorted(expected - seen)}"
    assert payload["failed"] == 0 and payload["all_ok"]
