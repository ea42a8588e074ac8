"""Extension — algorithmic-complexity validation.

§II-B makes two complexity claims this bench verifies empirically at
constant density:

* "a linked-cell algorithm that keeps the complexity of the
  neighbor-finding algorithm to O(N)" — candidate pairs examined per
  rebuild grow linearly in N;
* "Coulombic forces are calculated between every pair of charged
  particles" — terms grow as N².
"""

import numpy as np
from _util import write_report

from repro.workloads.scaling import build_ionic_gas, build_lj_block

LJ_SIZES = (1000, 2000, 4000, 8000)
ION_SIZES = (128, 256, 512)


def measure(traces_unused):
    lj_rows = []
    for n in LJ_SIZES:
        wl = build_lj_block(n, seed=1)
        engine = wl.make_engine()
        engine.prime()
        report = engine.step()
        lj_rows.append(
            (
                n,
                engine.neighbors.last_candidates,
                engine.neighbors.n_pairs,
                report.force_results["lj"].terms,
            )
        )
    ion_rows = []
    for n in ION_SIZES:
        wl = build_ionic_gas(n, seed=1)
        report = wl.make_engine().step()
        ion_rows.append((n, report.force_results["coulomb"].terms))
    return lj_rows, ion_rows


def growth_exponent(sizes, values):
    """Least-squares slope of log(value) vs log(size)."""
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def test_ext_complexity(benchmark, traces, out_dir):
    lj_rows, ion_rows = benchmark.pedantic(
        measure, args=(traces,), rounds=1, iterations=1
    )
    sizes = [r[0] for r in lj_rows]
    candidates = [r[1] for r in lj_rows]
    lj_terms = [r[3] for r in lj_rows]
    cand_exp = growth_exponent(sizes, candidates)
    lj_exp = growth_exponent(sizes, lj_terms)
    # linked cells: O(N) neighbor finding (allow finite-size effects)
    assert 0.85 < cand_exp < 1.25, cand_exp
    assert 0.8 < lj_exp < 1.25, lj_exp

    ion_sizes = [r[0] for r in ion_rows]
    coulomb_terms = [r[1] for r in ion_rows]
    coulomb_exp = growth_exponent(ion_sizes, coulomb_terms)
    assert 1.85 < coulomb_exp < 2.05, coulomb_exp

    lines = [
        "Lennard-Jones block at constant density:",
        f"{'N':>6} {'candidates':>11} {'list pairs':>11} {'LJ terms':>9}",
    ]
    for n, cand, pairs, terms in lj_rows:
        lines.append(f"{n:>6} {cand:>11,} {pairs:>11,} {terms:>9,}")
    lines.append(
        f"growth exponents: candidates N^{cand_exp:.2f}, "
        f"LJ terms N^{lj_exp:.2f}  (claim: O(N))"
    )
    lines.append("")
    lines.append("All-pairs Coulomb over charged ions:")
    lines.append(f"{'N':>6} {'coulomb terms':>14}")
    for n, terms in ion_rows:
        lines.append(f"{n:>6} {terms:>14,}")
    lines.append(
        f"growth exponent: N^{coulomb_exp:.2f}  (claim: O(N²))"
    )
    write_report(
        out_dir / "ext_complexity.txt",
        "Extension: §II-B complexity claims, verified",
        "\n".join(lines),
    )
