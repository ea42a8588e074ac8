"""Perf gate: the committed ``BENCH_throughput.json`` (the DES hot-path
throughput record) keeps its >= 1.5x speedup over the
pre-optimization baseline it carries, within 0.05, and a telemetry
overhead within the 5% budget; a quick live replay sweep of the same
grid still runs and counts events.

Only the committed record is gated on the ratio: a live run is never
compared against the recorded baseline, which another host measured.
"""

from repro.core.simulate import SimulatedParallelRun, trace_atoms
from repro.machine import MACHINES, SimMachine
from repro.runcache import RunCache, cached_capture
from tests.gates._checks import REPO, assert_envelope, load_json, missing

MIN_SPEEDUP = 1.5
TOLERANCE = 0.05
MAX_OVERHEAD = 0.05
RUN_KEYS = {
    "workload", "threads", "steps", "repeat", "wall_seconds",
    "events", "events_per_sec", "sim_seconds",
    "sim_seconds_per_wall_second", "peak_heap",
}
#: the quick sweep: one and four threads, a quarter of the recorded
#: replay repeats
QUICK_THREADS = (1, 4)
QUICK_REPEATS = {"salt": 2, "nanocar": 2, "Al-1000": 1}


def _assert_runs(runs, where):
    assert runs, f"{where}: no runs"
    for i, run in enumerate(runs):
        assert not missing(run, RUN_KEYS), f"{where} run {i}"
        assert run["wall_seconds"] > 0 and run["events"] > 0, where
        derived = run["events"] / run["wall_seconds"]
        assert abs(derived - run["events_per_sec"]) <= 1e-6 * derived


def test_committed_record_keeps_its_speedup():
    payload = load_json(REPO / "BENCH_throughput.json")
    assert_envelope(payload, "repro.bench_throughput/")
    _assert_runs(payload["runs"], "current")
    baseline = payload["baseline"]
    _assert_runs(baseline["runs"], "baseline")
    assert baseline["events_per_sec"] > 0
    derived = payload["events_per_sec"] / baseline["events_per_sec"]
    speedup = payload["speedup"]
    assert abs(speedup - derived) <= 1e-6 * derived
    assert speedup >= MIN_SPEEDUP - TOLERANCE, speedup

    block = payload["telemetry"]
    assert not missing(block, {"off_wall_seconds", "on_wall_seconds",
                               "overhead", "runtime_metrics"})
    assert block["off_wall_seconds"] > 0 and block["on_wall_seconds"] > 0
    derived = block["on_wall_seconds"] / block["off_wall_seconds"] - 1.0
    assert abs(block["overhead"] - derived) <= 1e-6 * max(abs(derived), 1)
    assert block["runtime_metrics"].strip()
    assert block["overhead"] <= MAX_OVERHEAD, block["overhead"]


def test_live_quick_sweep_runs(tmp_path):
    spec = MACHINES["i7-920"]
    cache = RunCache(tmp_path)
    for name, repeat in QUICK_REPEATS.items():
        trace = cached_capture(cache, name, 5)
        for n in QUICK_THREADS:
            machine = SimMachine(spec, seed=0)
            result = SimulatedParallelRun(
                trace, trace_atoms(trace), machine, n,
                name=name, repeat=repeat,
            ).run()
            assert machine.sim.event_count > 0, (name, n)
            assert result.sim_seconds > 0
            assert result.steps == len(trace) * repeat
