"""Step pricing with cost tables against the uncached form it replaced.

:class:`MachineCostModel` builds the step-invariant parts of pricing
once: each force chunk's overlapped partitions and ghost partitions,
and the reduce phase's costs, which depend only on the partition.  The
oracle below is the earlier form, kept verbatim, which rebuilt both on
every step.  ``step_phases`` must equal it — every phase, every
``WorkCost``, every ``Traffic``, float for float and type for type —
for real captured steps, and hand out a fresh list on every step.
"""

import pytest

from repro.core import SimulatedParallelRun, capture_trace
from repro.machine import MACHINES, SimMachine
from repro.machine.cost import Traffic, WorkCost
from repro.workloads import BUILDERS

_STEPS = 6  # nanocar rebuilds at step 0, Al-1000 at step 3

_traces = {}


def _trace(workload):
    if workload not in _traces:
        wl = BUILDERS[workload]()
        _traces[workload] = (wl.system.n_atoms, capture_trace(wl, _STEPS))
    return _traces[workload]


# -- the oracle: step pricing as it was -------------------------------------


def _part_overlap(cm, lo, hi):
    span = max(1, hi - lo)
    out = []
    for t, (tlo, thi) in enumerate(cm.ranges):
        ov = min(hi, thi) - max(lo, tlo)
        if ov > 0:
            out.append((t, ov / span))
    return out


def oracle_force_like_costs(cm, work, label):
    p = cm.params
    ranges = cm.force_ranges
    shares = cm._share(work, ranges)
    costs = []
    for t, share in enumerate(shares):
        lo, hi = ranges[t]
        irregular = work.bytes_irregular * share * p.irregular_amplification
        regular = work.bytes_regular * share * p.regular_amplification
        reads = []
        overlap = _part_overlap(cm, lo, hi)
        own_parts = {s for s, _frac in overlap}
        if irregular > 0:
            others = [s for s in range(cm.n_threads) if s not in own_parts]
            ghost = irregular * p.shared_read_fraction if others else 0.0
            own = irregular - ghost
            for s, frac in overlap:
                reads.append(Traffic(cm.part_regions[s], own * frac))
            for s in others:
                reads.append(Traffic(cm.part_regions[s], ghost / len(others)))
        if regular > 0:
            for s, frac in overlap:
                reads.append(Traffic(cm.part_regions[s], regular * frac))
        if p.include_temp_churn and work.terms > 0:
            churn = work.terms * share * p.temp_bytes_per_term
            reads.append(Traffic(cm.tmp_regions[t % cm.n_threads], churn))
        writes = (
            Traffic(
                cm.force_regions[t], work.terms and (hi - lo) * 24.0,
                write=True,
            ),
        )
        costs.append(WorkCost(
            cycles=work.flops * share * p.cycles_per_flop,
            reads=tuple(reads),
            writes=writes if work.terms else (),
            label=label,
        ))
    return costs


def oracle_reduce_costs(cm):
    p = cm.params
    n_copies = len(cm.force_regions)
    costs = []
    for t, (lo, hi) in enumerate(cm.ranges):
        span = hi - lo
        reads = tuple(
            Traffic(cm.force_regions[s], span * 24.0) for s in range(n_copies)
        )
        writes = (Traffic(cm.part_regions[t], span * 24.0, write=True),)
        costs.append(WorkCost(
            cycles=n_copies * span * 3 * p.reduce_flops_per_element
            * p.cycles_per_flop,
            reads=reads,
            writes=writes,
            label="reduce",
        ))
    return costs


def oracle_step_phases(cm, report):
    pw = report.phase_work
    phases = [("predict", cm._uniform_costs(pw["predict"], "predict"))]
    force_work = pw["forces"]
    if report.rebuilt and pw["rebuild"].flops > 0:
        if cm.fuse_rebuild:
            force_work = cm._merge_phase_work(pw["rebuild"], force_work)
        else:
            phases.append((
                "rebuild",
                oracle_force_like_costs(cm, pw["rebuild"], "rebuild"),
            ))
    phases.append(("forces", oracle_force_like_costs(cm, force_work, "forces")))
    phases.append(("reduce", oracle_reduce_costs(cm)))
    phases.append(("correct", cm._uniform_costs(pw["correct"], "correct")))
    return phases


# -- the comparison -----------------------------------------------------------


def _bits(phases):
    """Every float with its type: ``repr`` tells ``np.float64(x)`` from
    ``x`` and round-trips every bit."""
    return [
        (name, [
            (repr(c.cycles), c.label,
             [(t.region, repr(t.n_bytes), t.write) for t in c.reads],
             [(t.region, repr(t.n_bytes), t.write) for t in c.writes])
            for c in costs
        ])
        for name, costs in phases
    ]


_CONFIGS = [
    dict(),
    dict(fuse_rebuild=False),
    dict(chunk="fixed", chunk_factor=3),
    dict(chunk="guided", fuse_rebuild=False),
    dict(partition="balanced", chunk="fixed", chunk_factor=2),
]


@pytest.mark.parametrize("workload", ["salt", "nanocar", "Al-1000"])
@pytest.mark.parametrize("threads", [1, 8, 32])
@pytest.mark.parametrize("config", range(len(_CONFIGS)))
def test_step_phases_equal_uncached_oracle(workload, threads, config):
    n_atoms, trace = _trace(workload)
    run = SimulatedParallelRun(
        trace, n_atoms, SimMachine(MACHINES["x7560x4"]), threads,
        name=workload, **_CONFIGS[config],
    )
    cm = run.cost_model
    lists = []  # held, so no id is reused while checked
    for report in trace:
        got = cm.step_phases(report)
        want = oracle_step_phases(cm, report)
        assert got == want
        assert _bits(got) == _bits(want)
        lists.extend(costs for _name, costs in got)
    assert len({id(costs) for costs in lists}) == len(lists)
    # every rebuild the trace holds was priced, fused or on its own
    if any(r.rebuilt and r.phase_work["rebuild"].flops > 0 for r in trace):
        names = {n for r in trace for n, _ in cm.step_phases(r)}
        assert ("rebuild" in names) == (not cm.fuse_rebuild)
