"""Chaos-harness acceptance: the ISSUE's worker-crash criterion.

A worker-crash plan on Al-1000 at 4 threads must complete every step
with the re-issued task visible in the trace, and the attribution
buckets — including the new ``fault_loss`` — must still telescope
exactly to ``achieved − T1/N``.
"""

import pytest

from repro.core.simulate import SimulatedParallelRun, capture_trace
from repro.faults import FaultPlan, WorkerCrash
from repro.faults.chaos import (
    CHAOS_SCHEMA,
    default_plans,
    physics_invariants,
    run_chaos_case,
)
from repro.machine import CORE_I7_920, SimMachine
from repro.obs import Tracer
from repro.workloads import BUILDERS
from tests.obs._attribute import attribute

STEPS = 3
THREADS = 4


@pytest.fixture(scope="module")
def al1000():
    wl = BUILDERS["Al-1000"]()
    return wl, capture_trace(wl, STEPS)


@pytest.fixture(scope="module")
def crash_plan(al1000):
    wl, trace = al1000
    machine = SimMachine(CORE_I7_920, seed=0)
    ref = SimulatedParallelRun(
        trace, wl.system.n_atoms, machine, THREADS, name=wl.name
    ).run()
    return (
        FaultPlan(
            name="crash",
            faults=(WorkerCrash(at=0.3 * ref.sim_seconds, worker=1),),
        ),
        ref.sim_seconds,
    )


def test_worker_crash_completes_all_steps(al1000, crash_plan):
    wl, trace = al1000
    plan, t0 = crash_plan
    machine = SimMachine(CORE_I7_920, seed=0)
    tracer = Tracer().attach(machine.sim)
    result = SimulatedParallelRun(
        trace, wl.system.n_atoms, machine, THREADS,
        name=wl.name, fault_plan=plan, phase_timeout=20.0 * t0,
    ).run()
    tracer.detach()
    assert result.steps == STEPS
    assert result.dead_workers == [1]
    # every phase of every step closed its latch despite the crash
    windows = tracer.phase_windows()
    assert windows and all(w.complete for w in windows)
    # the victim's in-flight task was re-issued, visibly
    assert result.reissued
    reissues = tracer.events_of("task.reissue")
    assert {e.subject for e in reissues} == set(result.reissued)
    # every submitted task finished (at-most-once per epoch)
    spans = tracer.task_spans()
    assert spans and all(s.finished is not None for s in spans)
    assert result.fault_windows[0].kind == "worker_crash"


def test_fault_loss_telescopes_exactly(al1000, crash_plan):
    wl, trace = al1000
    plan, _ = crash_plan
    res = attribute(wl.name, THREADS, steps=STEPS, trace=trace,
                    fault_plan=plan)
    assert res.buckets["fault_loss"] > 0
    # conservation: sum of buckets == achieved − T1/N to round-off
    assert res.conservation_error() < 1e-12
    faultless = attribute(wl.name, THREADS, steps=STEPS, trace=trace)
    assert faultless.buckets["fault_loss"] == 0.0
    assert faultless.conservation_error() < 1e-12


def test_run_chaos_case_passes_and_reports(al1000, crash_plan):
    wl, trace = al1000
    plan, _ = crash_plan
    case = run_chaos_case(
        wl.name, plan, THREADS, steps=STEPS, trace=trace
    )
    assert case["ok"] and case["completed"]
    assert case["deterministic"]
    assert case["dead_workers"] == [1]
    assert case["physics"]["energy_ok"] and case["physics"]["atoms_ok"]
    assert case["tasks_completed"] == case["tasks_enqueued"]
    assert case["slowdown"] >= 1.0


def test_default_plans_cover_every_fault_type():
    plans = default_plans(0.01, 4, 8)
    kinds = {f.kind for plan in plans.values() for f in plan}
    assert kinds == {
        "worker_crash", "straggler", "preempt_storm",
        "task_loss", "lock_stall", "gc_amplify",
    }


def test_physics_invariants_on_captured_trace(al1000):
    wl, trace = al1000
    inv = physics_invariants(trace, wl.system.n_atoms)
    assert inv["energy_ok"] and inv["atoms_ok"]
    assert inv["energy_drift"] < 0.05
    assert CHAOS_SCHEMA == "repro.chaos/1"
