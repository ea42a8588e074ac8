"""The scheduler's incremental per-PU load index.

Placement reads ``Scheduler._loads`` instead of recomputing every
candidate's load, so the index must equal :meth:`Scheduler.load` — the
definition — for every PU at every ``choose_pu`` call, float for float.
This property checks it across machines, pool sizes, affinity masks
and fault plans that perturb placement (a straggler core, a preemption
storm's background threads).  ``scan_first_choose_pu`` keeps placement
as it was before the idle-last-PU return moved ahead of the load scan;
it must pick the same PU and leave the same RNG state.
"""

from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SimulatedParallelRun, capture_trace
from repro.faults import FaultPlan, PreemptStorm, Straggler
from repro.machine import MACHINES, SimMachine
from repro.machine.scheduler import Scheduler
from repro.workloads import BUILDERS

_traces = {}


def _salt():
    if "salt" not in _traces:
        wl = BUILDERS["salt"]()
        _traces["salt"] = (wl, capture_trace(wl, 2))
    return _traces["salt"]


def _plan(kind: str, n_pus: int) -> FaultPlan:
    if kind == "straggler":
        return FaultPlan(faults=(
            Straggler(start=0.0, duration=1.0, pu=1, factor=0.4),
        ))
    if kind == "storm":
        return FaultPlan(faults=(
            PreemptStorm(start=0.0, duration=1.0,
                         pus=tuple(range(min(3, n_pus)))),
        ))
    return FaultPlan()


@settings(max_examples=25, deadline=None)
@given(
    machine=st.sampled_from(sorted(MACHINES)),
    threads=st.integers(min_value=1, max_value=8),
    mask=st.sampled_from(["all", "pinned", "subset"]),
    fault=st.sampled_from(["none", "straggler", "storm"]),
    seed=st.integers(min_value=0, max_value=3),
)
def test_load_index_equals_load_at_every_placement(
    machine, threads, mask, fault, seed
):
    wl, trace = _salt()
    spec = MACHINES[machine]
    m = SimMachine(spec, seed=seed)
    n_pus = spec.n_pus
    if mask == "pinned":
        affinities = [[(2 * i) % n_pus] for i in range(threads)]
    elif mask == "subset":
        # overlapping multi-PU masks, so placement really chooses
        affinities = [
            sorted({i % n_pus, (i + 1) % n_pus, (i + 3) % n_pus})
            for i in range(threads)
        ]
    else:
        affinities = None
    checked = []
    choose_pu = Scheduler.choose_pu

    def checking_choose_pu(sched, thread):
        for p in thread.affinity_list:
            assert sched._loads[p] == sched.load(p), (p, sched.sim.now)
        checked.append(len(thread.affinity_list))
        return choose_pu(sched, thread)

    with mock.patch.object(Scheduler, "choose_pu", checking_choose_pu):
        SimulatedParallelRun(
            trace, wl.system.n_atoms, m, threads, name=wl.name,
            affinities=affinities, fault_plan=_plan(fault, n_pus),
        ).run()
    assert checked
    # the index is exact between placements too, once the run drains
    sched = m.scheduler
    assert sched._loads == [sched.load(p) for p in range(n_pus)]


def test_last_pu_outside_the_mask_is_not_taken():
    """The idle-last-PU fast path checks the affinity mask."""
    m = SimMachine(MACHINES["i7-920"], seed=0)
    # PU 0 is idle but no longer in the thread's mask
    t = SimpleNamespace(
        affinity=frozenset({2, 3}), affinity_list=(2, 3), last_pu=0
    )
    for _ in range(50):
        assert m.scheduler.choose_pu(t) in (2, 3)


def scan_first_choose_pu(sched, thread) -> int:
    """``Scheduler.choose_pu`` before its reorder: the global minimum
    load is scanned before the roll and the idle-last-PU return."""
    aff = thread.affinity_list
    if len(aff) == 1:
        return aff[0]
    last = thread.last_pu
    loads = sched._loads
    global_best = min([loads[p] for p in aff])
    roll = sched._rng.random()
    wander = roll < sched.migrate_prob
    rebalance = roll < sched.rebalance_prob
    if last in thread.affinity and loads[last] == 0 and not wander:
        return last
    pool = aff
    best = global_best
    if last is not None and not rebalance:
        llc_of = sched._llc_of
        local = [p for p in aff if llc_of[p] == llc_of[last]]
        if local:
            local_best = min(loads[p] for p in local)
            if local_best <= global_best + 0.25:
                pool = local
                best = local_best
    cands = [p for p in pool if loads[p] == best]
    if last in cands and not wander:
        return last
    return sched._rng.choice(cands)


@settings(max_examples=300, deadline=None)
@given(
    machine=st.sampled_from(sorted(MACHINES)),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_choose_pu_equals_the_scan_first_placement(machine, data, seed):
    spec = MACHINES[machine]
    n = spec.n_pus
    m = SimMachine(spec, seed=0)
    sched = m.scheduler
    # loads as the index holds them: whole counts plus 0.45 per busy
    # SMT sibling, with many idle PUs so the fast path is exercised
    sched._loads = data.draw(st.lists(
        st.sampled_from([0.0, 0.0, 0.0, 1.0, 1.45, 2.0, 0.45]),
        min_size=n, max_size=n,
    ))
    mask = data.draw(st.lists(
        st.integers(0, n - 1), min_size=1, max_size=n, unique=True,
    ))
    last = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
    thread = SimpleNamespace(
        affinity=frozenset(mask), affinity_list=tuple(sorted(mask)),
        last_pu=last,
    )
    sched._rng.seed(seed)
    want = scan_first_choose_pu(sched, thread)
    state = sched._rng.getstate()
    sched._rng.seed(seed)
    assert sched.choose_pu(thread) == want
    assert sched._rng.getstate() == state
