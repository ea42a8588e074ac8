"""Experiment table1 — TABLE I: Representative Benchmark Characteristics.

Regenerates the paper's Table I and checks every cell against
:data:`repro.targets.TABLE1`: atom counts, charged-atom counts, bond
counts, and the *measured* dominant computation type of each benchmark.
"""

from _util import write_report

from repro.analysis import table1
from repro.targets import TABLE1, table1_checks
from repro.workloads import BUILDERS, table1_rows


def build_and_characterize():
    workloads = [BUILDERS[n]() for n in TABLE1]
    return workloads, table1_rows(workloads)


def test_table1(benchmark, out_dir):
    workloads, rows = benchmark.pedantic(
        build_and_characterize, rounds=1, iterations=1
    )
    for check in table1_checks(rows):
        assert check.ok, f"{check.label}: {check.measured} vs {check.target}"
    write_report(
        out_dir / "table1.txt",
        "TABLE I: Representative Benchmark Characteristics",
        table1(workloads),
    )
