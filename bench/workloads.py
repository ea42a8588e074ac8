"""The four benchmark workloads.

A workload fixes the specs one repetition sweeps, what set-up puts in
the run cache before the first timed repetition, and the correctness
checks every repetition's artifacts must pass.  ``--seed`` is the only
input: the program receives nothing but the specs generated from it.

Every repetition runs what ``repro sweep`` runs —
``sweep(specs, RunCache(dir), jobs=J, policy=SupervisionPolicy(max_attempts=3))``
— followed by ``attribute_observations`` on each observe result.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, List, Optional, Sequence

#: the paper's Table I workloads, in the order every grid lists them
PAPER = ("salt", "nanocar", "Al-1000")
#: calibrated Fig. 1 speedups at 4 threads on the i7-920; they hold at
#: 20 steps for every machine seed (smoke runs use fewer steps and skip
#: this check)
FIG1_SPEEDUPS = {"salt": 3.63, "nanocar": 2.85, "Al-1000": 1.41}
FIG1_STEPS = 20
FIG1_TOLERANCE = 0.01
#: the attribution buckets must add up to the gap to float round-off
CONSERVATION_TOL = 1e-9
#: seed-ensemble seeds re-captured with the scalar engine in every run
SCALAR_CHECKS = 3
ENSEMBLE_FAMILY = "gas-8"


@dataclass(frozen=True)
class Definition:
    """What one workload sweeps; ``reps`` is the fixed repetition count
    of ``bench run`` (``bench/run.py`` measures for a fixed time
    instead)."""

    name: str
    reps: int
    steps: int
    #: observe grids: thread counts on ``machine``; empty for the
    #: capture-only seed ensemble
    threads: Sequence[int] = ()
    machine: str = ""
    #: capture specs per repetition (seed ensemble only)
    runs: int = 0
    #: "cold" (fresh empty cache per rep), "captures" (a copy of a cache
    #: holding the physics captures) or "warm" (every spec hits)
    cache: str = "cold"

    @property
    def observes(self) -> bool:
        return bool(self.threads)

    def smoke(self) -> "Definition":
        """Tiny steps and reps, for the benchmark's own tests only."""
        return replace(
            self, reps=2, steps=2 if self.observes else 4,
            runs=min(self.runs, 8),
        )


#: why each workload is here is recorded in BENCHMARK.json and the README
DEFINITIONS = {
    d.name: d
    for d in (
        Definition(
            "fig1-cold", reps=10, steps=FIG1_STEPS, threads=(1, 2, 3, 4),
            machine="i7-920", cache="cold",
        ),
        Definition(
            "tab3-replay", reps=15, steps=10, threads=(1, 8, 16, 32),
            machine="x7560x4", cache="captures",
        ),
        Definition(
            "seed-ensemble", reps=25, steps=40, runs=200, cache="cold",
        ),
        Definition(
            "fig1-warm", reps=300, steps=FIG1_STEPS, threads=(1, 2, 3, 4),
            machine="i7-920", cache="warm",
        ),
    )
}


def policy():
    """The supervision policy of ``repro sweep``."""
    from repro.runcache import SupervisionPolicy

    return SupervisionPolicy(max_attempts=3)


def artifact_digests(artifacts: Sequence[Any]) -> List[Optional[str]]:
    """SHA-256 of each artifact's canonical bytes (None stays None)."""
    from repro.runcache import dumps_artifact

    return [
        None if a is None else hashlib.sha256(dumps_artifact(a)).hexdigest()
        for a in artifacts
    ]


@dataclass
class Rep:
    """One repetition's outcome: the sweep and its attributions."""

    result: Any
    #: one AttributionResult per observe spec (None where an input is
    #: missing); empty for capture-only workloads
    attributions: List[Any] = field(default_factory=list)


class Workload:
    """One workload bound to a seed, a scratch directory and a pool
    width.  Call :meth:`setup` once, then :meth:`prepare` +
    :meth:`run` + :meth:`release` per repetition."""

    def __init__(self, definition: Definition, seed: int, scratch: Path):
        self.d = definition
        self.seed = seed
        self.scratch = Path(scratch)
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.specs = self._specs()
        #: artifact digests every repetition must reproduce; set by the
        #: warm cache fill, else by the first repetition
        self.reference: Optional[List[Optional[str]]] = None
        self.fill: Optional[Path] = None

    def _specs(self) -> list:
        from repro.runcache import capture_spec, observe_spec

        d = self.d
        if not d.observes:
            base = self.seed * 1000
            return [
                capture_spec(ENSEMBLE_FAMILY, d.steps, seed=base + i)
                for i in range(d.runs)
            ]
        return [
            observe_spec(w, d.steps, n, d.machine, seed=self.seed)
            for w in PAPER
            for n in d.threads
        ]

    # -- cache lifecycle ---------------------------------------------------

    def setup(self, jobs: int) -> None:
        """Fill the cache the repetitions start from (work a user pays
        once per campaign, not once per sweep)."""
        from repro.runcache import RunCache, capture_spec, sweep

        if self.d.cache == "cold":
            return
        self.fill = Path(tempfile.mkdtemp(prefix="fill-", dir=self.scratch))
        specs = (
            self.specs
            if self.d.cache == "warm"
            else [capture_spec(w, self.d.steps) for w in PAPER]
        )
        result = sweep(specs, RunCache(self.fill), jobs=jobs, policy=policy())
        if self.d.cache == "warm":
            self.reference = artifact_digests(result.artifacts)

    def prepare(self) -> Path:
        """The cache directory the next repetition sweeps into."""
        if self.d.cache == "warm":
            return self.fill
        root = Path(tempfile.mkdtemp(prefix="rep-", dir=self.scratch))
        if self.d.cache == "captures":
            shutil.copytree(self.fill, root, dirs_exist_ok=True)
        return root

    def release(self, root: Path) -> None:
        if root != self.fill:
            shutil.rmtree(root, ignore_errors=True)

    # -- one repetition ----------------------------------------------------

    def run(self, root: Path, jobs: int) -> Rep:
        """One repetition: the sweep, then every observe result
        attributed against its 1-thread baseline."""
        from repro.runcache import RunCache, sweep

        cache = RunCache(root)
        result = sweep(self.specs, cache, jobs=jobs, policy=policy())
        if not self.d.observes:
            return Rep(result)
        return Rep(result, self._attribute(result.artifacts, cache))

    def _attribute(self, artifacts, cache) -> list:
        from repro.machine import MACHINES
        from repro.obs.attribution import attribute_observations
        from repro.runcache import cached_capture

        machine = MACHINES[self.d.machine].name
        per = len(self.d.threads)
        base_at = self.d.threads.index(1)
        out = []
        for k, w in enumerate(PAPER):
            trace = cached_capture(cache, w, self.d.steps)
            row = artifacts[k * per:(k + 1) * per]
            baseline = row[base_at]
            for obs in row:
                out.append(
                    attribute_observations(
                        obs, baseline, trace, machine=machine
                    )
                    if obs is not None and baseline is not None
                    else None
                )
        return out

    # -- correctness -------------------------------------------------------

    def check(self, rep: Rep, kind: str = "rep") -> Counter:
        """Failed checks of one repetition, by name.

        Every spec needs an artifact whose bytes equal the reference;
        every attribution must conserve the gap; the Fig. 1 grid must
        keep the calibrated 4-thread speedups.  ``kind`` names the
        byte-identity check, so a ``jobs=1`` or traced sweep that
        diverges is reported as such.
        """
        fails: Counter = Counter()
        digests = artifact_digests(rep.result.artifacts)
        if self.reference is None:
            self.reference = digests
        fails["missing"] += sum(h is None for h in digests)
        fails[f"bytes.{kind}"] += sum(
            h is not None and h != ref
            for h, ref in zip(digests, self.reference)
        )
        fails["conservation"] += sum(
            res is not None and res.conservation_error() > CONSERVATION_TOL
            for res in rep.attributions
        )
        if self.d.observes and 4 in self.d.threads and (
            self.d.steps == FIG1_STEPS
        ):
            fails["fig1"] += fig1_failures(self.fig1_speedups(rep))
        return +fails

    def fig1_speedups(self, rep: Rep) -> dict:
        """Achieved 4-thread speedup per paper workload."""
        per = len(self.d.threads)
        at = self.d.threads.index(4)
        out = {}
        for k, w in enumerate(PAPER):
            res = rep.attributions[k * per + at]
            if res is not None:
                out[w] = res.achieved_speedup
        return out

    def scalar_mismatches(self) -> int:
        """Seed-ensemble seeds whose cached bytes differ from a scalar
        ``capture_trace`` of the same seed."""
        from repro.core.simulate import capture_trace
        from repro.workloads import BUILDERS

        if self.d.observes:
            return 0
        n = 0
        for spec, ref in list(zip(self.specs, self.reference))[:SCALAR_CHECKS]:
            trace = capture_trace(
                BUILDERS[spec.workload](seed=spec.seed), spec.steps
            )
            n += artifact_digests([trace])[0] != ref
        return n


def fig1_failures(speedups: dict) -> int:
    """Paper workloads off their calibrated speedup, plus one if the
    salt > nanocar > Al-1000 ordering is broken."""
    n = sum(
        w not in speedups or abs(speedups[w] - target) > FIG1_TOLERANCE
        for w, target in FIG1_SPEEDUPS.items()
    )
    if len(speedups) == len(PAPER):
        n += not speedups["salt"] > speedups["nanocar"] > speedups["Al-1000"]
    return n
