#!/usr/bin/env python
"""Heating table salt: the Coulomb-dominated benchmark as a physics demo.

Runs the paper's ``salt`` workload (400 Na+ + 400 Cl-) through a heating
schedule with a Berendsen thermostat and reports temperature, energy
split, and the Coulomb/LJ work ratio that makes this benchmark
compute-bound (and therefore the best-scaling case in Fig. 1).

Run:  python examples/salt_melt.py
"""

from repro.md import BerendsenThermostat
from repro.workloads import build_salt


def main() -> None:
    workload = build_salt(seed=0, temperature_k=300.0)
    # tight coupling (two 2 fs steps) keeps the short schedule below
    # near each target
    thermostat = BerendsenThermostat(target_k=300.0, tau_fs=4.0)
    engine = workload.make_engine(thermostat=thermostat)
    engine.prime()

    # let the lattice relax first: the as-built crystal releases
    # potential energy that the thermostat must carry away (it is still
    # releasing some during the heating, so each stage ends a little
    # above its target)
    for _ in range(40):
        engine.step()

    schedule = [300.0, 600.0, 900.0, 1200.0]
    print(f"{'target K':>9} {'actual K':>9} {'E_pot (eV)':>12} "
          f"{'E_kin (eV)':>11} {'coulomb terms':>14} {'lj terms':>9}")
    for target in schedule:
        thermostat.target_k = target
        last = None
        for _ in range(30):
            last = engine.step()
        coulomb = last.force_results["coulomb"]
        lj = last.force_results["lj"]
        print(
            f"{target:>9.0f} {engine.system.temperature():>9.0f} "
            f"{last.potential_energy:>12.2f} {last.kinetic_energy:>11.2f} "
            f"{coulomb.terms:>14,} {lj.terms:>9,}"
        )

    flops_ratio = coulomb.flops / max(lj.flops, 1.0)
    print(
        f"\nCoulomb does {flops_ratio:.0f}x the arithmetic of LJ here — "
        "every pair of the 800 ions is computed each step, regardless of "
        "distance (§II-B).  That arithmetic density is why salt reached "
        "3.63x on four cores in the paper."
    )
    rebuilds = engine.neighbors.rebuild_count
    print(f"neighbor rebuilds over the run: {rebuilds}")


if __name__ == "__main__":
    main()
