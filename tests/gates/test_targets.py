"""The targets module is the one source of the paper's numbers: the
host-time benchmark's Fig. 1 check and the Table III driver use the
same rows."""

from bench import workloads as bench_workloads
from repro.machine import MACHINES
from repro.machine.topology import Topology
from repro.targets import (
    FIG1_CALIBRATED,
    FIG1_ORDER,
    FIG1_STEPS,
    FIG1_TOLERANCE,
    TABLE1,
    TABLE3_MACHINE,
    TABLE3_PAPER,
    TABLE3_RELATIONS,
    table3_configs,
)
from repro.workloads import PAPER_WORKLOADS


def test_bench_fig1_check_uses_the_calibrated_rows():
    assert bench_workloads.FIG1_SPEEDUPS == FIG1_CALIBRATED
    assert bench_workloads.FIG1_TOLERANCE == FIG1_TOLERANCE
    assert bench_workloads.FIG1_STEPS == FIG1_STEPS


def test_every_row_names_a_paper_workload():
    assert set(TABLE1) == set(FIG1_ORDER) == set(PAPER_WORKLOADS)
    assert set(bench_workloads.PAPER) == set(PAPER_WORKLOADS)


def test_table3_configs_are_the_paper_rows():
    topo = Topology(MACHINES[TABLE3_MACHINE])
    assert [label for label, _n, _mask in table3_configs(topo)] == list(
        TABLE3_PAPER
    )


def test_table3_known_deviation_is_the_paper_inversion():
    # the paper's own runtimes satisfy every relation, the known
    # deviation included
    assert all(rel.holds(TABLE3_PAPER) for rel in TABLE3_RELATIONS)
    assert [r.label for r in TABLE3_RELATIONS if r.known_deviation] == [
        "8 OS scheduled is the slowest 8-thread row"
    ]
