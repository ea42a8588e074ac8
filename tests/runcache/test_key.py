"""Cache-key canonicalization: equal configs digest equal, observable
changes digest different, and the code salt invalidates everything."""

import dataclasses

import pytest

from repro.concurrent import QueueMode
from repro.core.costmodel import DEFAULT_COST_PARAMS
from repro.faults import FaultPlan, WorkerCrash
from repro.runcache import (
    RunSpec,
    code_version_salt,
    observe_spec,
    spec_digest,
)
from repro.runcache.key import OPTION_DEFAULTS, params_to_spec


def obs(**overrides) -> RunSpec:
    base = dict(
        kind="observe", workload="salt", steps=3,
        seed=0, threads=2, machine="i7-920",
    )
    base.update(overrides)
    return RunSpec(**base)


# ------------------------------------------------ same config, same key


def test_dict_ordering_never_matters():
    a = obs(options={"partition": "block", "repeat": 2})
    b = obs(options={"repeat": 2, "partition": "block"})
    assert a.encode() == b.encode()
    assert spec_digest(a) == spec_digest(b)


def test_default_params_and_none_digest_identically():
    explicit = obs(params=params_to_spec(DEFAULT_COST_PARAMS))
    assert spec_digest(obs()) == spec_digest(explicit)


def test_omitted_options_fill_from_defaults():
    explicit = obs(options=dict(OPTION_DEFAULTS))
    assert spec_digest(obs()) == spec_digest(explicit)
    # a single explicitly-passed default is also a no-op
    assert spec_digest(obs(options={"repeat": 1})) == spec_digest(obs())


def test_queue_mode_enum_and_string_digest_identically():
    a = obs(options={"queue_mode": QueueMode.PER_THREAD})
    b = obs(options={"queue_mode": "per-thread"})
    assert spec_digest(a) == spec_digest(b)


def test_explicit_default_strategy_knobs_are_noops():
    explicit = obs(
        options={
            "assign": "owner-index",
            "chunk": "thread",
            "chunk_factor": 1,
            "steal_policy": "locality",
            "steal_cost_cycles": 400.0,
            "pop_overhead_cycles": 150.0,
        }
    )
    assert spec_digest(explicit) == spec_digest(obs())
    # int-vs-float of a numeric knob canonicalizes too
    assert spec_digest(
        obs(options={"steal_cost_cycles": 400})
    ) == spec_digest(obs())


def test_capture_normalizes_replay_fields():
    # threads/machine describe the replay, not the physics: captures
    # fold them away...
    a = RunSpec(kind="capture", workload="salt", steps=3)
    b = RunSpec(
        kind="capture", workload="salt", steps=3,
        threads=8, machine="x7560x4",
    )
    assert spec_digest(a) == spec_digest(b)
    # ...but the seed picks the initial conditions, so it is observable
    c = RunSpec(kind="capture", workload="salt", steps=3, seed=9)
    assert spec_digest(c) != spec_digest(a)


def test_fault_plan_round_trip_is_stable():
    plan = FaultPlan(
        name="crash", faults=(WorkerCrash(at=0.1, worker=1),)
    )
    a = obs(fault_plan=plan.to_dict())
    b = obs(fault_plan=FaultPlan.from_dict(plan.to_dict()).to_dict())
    assert spec_digest(a) == spec_digest(b)


# ------------------------------------------- any change, different key


@pytest.mark.parametrize(
    "change",
    [
        {"workload": "nanocar"},
        {"steps": 4},
        {"seed": 1},
        {"threads": 4},
        {"machine": "e5450x2"},
        {"kind": "trace"},
        {"affinities": [[0], [1]]},
        {"master_affinity": [0]},
        {"options": {"repeat": 2}},
        {"options": {"partition": "interleave"}},
        {"options": {"queue_mode": "per-thread"}},
        {"options": {"queue_mode": "stealing"}},
        {"options": {"gc_model": "chaos"}},
        # executor strategy knobs (the autotuner's search space)
        {"options": {"assign": "round-robin"}},
        {"options": {"assign": "cost-balanced"}},
        {"options": {"chunk": "guided"}},
        {"options": {"chunk": "fixed", "chunk_factor": 2}},
        {"options": {"steal_policy": "random"}},
        {"options": {"steal_cost_cycles": 800.0}},
        {"options": {"pop_overhead_cycles": 300.0}},
        {
            "fault_plan": FaultPlan(
                name="crash", faults=(WorkerCrash(at=0.1, worker=0),)
            ).to_dict()
        },
    ],
)
def test_any_field_change_changes_the_digest(change):
    assert spec_digest(obs(**change)) != spec_digest(obs())


def test_params_field_change_changes_the_digest():
    tweaked = dataclasses.replace(
        DEFAULT_COST_PARAMS,
        cycles_per_flop=DEFAULT_COST_PARAMS.cycles_per_flop * 2,
    )
    assert spec_digest(obs(params=params_to_spec(tweaked))) != (
        spec_digest(obs())
    )


def test_salt_is_part_of_the_digest():
    spec = obs()
    assert spec_digest(spec, salt="a") != spec_digest(spec, salt="b")


def test_code_version_salt_is_a_stable_sha256():
    salt = code_version_salt()
    assert salt == code_version_salt()  # per-process cache
    assert len(salt) == 64
    int(salt, 16)  # hex


# --------------------------------------------------------- validation


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown spec kind"):
        RunSpec(kind="nope", workload="salt", steps=1)


def test_bad_steps_and_threads_rejected():
    with pytest.raises(ValueError, match="steps"):
        RunSpec(kind="capture", workload="salt", steps=0)
    with pytest.raises(ValueError, match="threads"):
        obs(threads=0)


def test_observe_spec_rejects_options_nothing_reads():
    # a typo would hash into its own entry and replay the single queue
    with pytest.raises(ValueError, match="queue_mod"):
        observe_spec("salt", 2, 2, "i7-920", queue_mod="per-thread")
    spelled = observe_spec("salt", 2, 2, "i7-920", queue_mode="per-thread")
    assert spelled.options == {"queue_mode": "per-thread"}


def test_load_is_a_named_observe_scenario():
    with pytest.raises(ValueError, match="unknown load scenario"):
        observe_spec("salt", 2, 2, "i7-920", load="busy")
    loaded = observe_spec("salt", 2, 2, "i7-920", load="table3")
    assert spec_digest(loaded) != spec_digest(obs(steps=2))
    # an explicit None is the default: it hashes like an omitted load
    assert spec_digest(obs(options={"load": None})) == spec_digest(obs())
    for kind in ("capture", "trace", "chaos_ref", "chaos_case", "toolerror"):
        with pytest.raises(ValueError, match="background load"):
            RunSpec(
                kind=kind, workload="salt", steps=2, threads=2,
                machine="i7-920", options={"load": "table3"},
            )


def test_unknown_params_field_rejected_at_encode():
    with pytest.raises(ValueError, match="unknown CostParams field"):
        obs(params={"warp_drive": 9}).encode()


def test_label_is_human_readable():
    assert obs().label() == "observe:salt:s3:x2:i7-920"
    cap = RunSpec(kind="capture", workload="salt", steps=3)
    assert cap.label() == "capture:salt:s3"


# ------------------------------------------------------ toolerror kind


def test_toolerror_is_a_cacheable_kind():
    from repro.runcache.key import KINDS

    assert "toolerror" in KINDS


def test_toolerror_spec_canonicalizes_periods():
    from repro.runcache import toolerror_spec

    a = toolerror_spec("al1000", 2, 2, "i7-920")
    b = toolerror_spec("Al-1000", 2, 2, "i7-920", periods=(1, 0.005))
    assert a.workload == "Al-1000"  # alias resolved into the key
    assert a.encode() == b.encode()  # default periods, int-vs-float
    c = toolerror_spec("Al-1000", 2, 2, "i7-920", periods=(0.5,))
    assert c.encode() != a.encode()
    d = toolerror_spec("Al-1000", 2, 2, "e5450x2")
    assert d.encode() != a.encode()


# --------------------------------------------------- digest memoization


def test_spec_digest_memoized_per_salt_and_invalidated_on_change():
    from repro.runcache.key import spec_digest

    spec = RunSpec(kind="capture", workload="salt", steps=2)
    first = spec_digest(spec, "salt-a")
    assert spec_digest(spec, "salt-a") == first  # served from the memo
    changed = spec_digest(spec, "salt-b")
    assert changed != first  # a code-salt bump invalidates the memo
    assert spec_digest(spec, "salt-a") == first  # recomputed, stable


def test_equal_specs_digest_identically_across_instances():
    from repro.runcache.key import spec_digest

    a = RunSpec(kind="capture", workload="salt", steps=2)
    b = RunSpec(kind="capture", workload="salt", steps=2)
    assert spec_digest(a, "s") == spec_digest(b, "s")


def test_canonical_dict_is_memoized_on_the_instance():
    spec = RunSpec(
        kind="observe", workload="salt", steps=2,
        threads=2, machine="i7-920",
    )
    assert spec.canonical() is spec.canonical()
