"""Converting measured MD work counts into simulated machine costs.

The serial engine reports, per timestep and phase, exactly what it did:
flops, pair/bond terms, bytes gathered irregularly versus streamed, and
the per-atom distribution of that work.  This module prices that work
for one thread partition:

* arithmetic → core cycles (``cycles_per_flop``: scalar JVM code),
* irregular bytes → object-graph-amplified traffic against the thread's
  partition region and a shared ghost region (``A[B[i]]`` gathers chase
  array slot → Atom object → Vector3, ``irregular_amplification``
  uncorrelated lines per logical access),
* temp-object churn (§V-B's Vector3 wrappers) → always-cold reads of a
  young-generation region, polluting the LLC,
* privatized-force writes and the phase-5 reduction that reads every
  thread's buffer (cross-socket traffic when pinned one-per-socket —
  the Table III topology effect).

The parameters are calibrated once against Fig. 1's published speedups
and then reused unchanged by every other experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.machine.cachestate import Region
from repro.machine.cost import Traffic, WorkCost
from repro.md.engine import PhaseWork, StepReport

Range = Tuple[int, int]


@dataclass(frozen=True, slots=True)
class CostParams:
    """Calibration knobs for the machine cost model."""

    #: core cycles per reported flop (scalar JVM arithmetic)
    cycles_per_flop: float = 1.4
    #: cache lines actually touched per reported irregular byte (the
    #: Java object graph: reference array -> Atom -> Vector3 objects)
    irregular_amplification: float = 4.0
    #: multiplier on regular (streamed) bytes
    regular_amplification: float = 1.0
    #: total heap footprint ("a working set size of about 25 MB") — a
    #: fallback for hot-set sizing when no trace statistics are given
    working_set_bytes: float = 25.0 * 2**20
    #: cache-region size relative to the measured per-step hot traffic:
    #: the bytes a step cycles through, padded for layout slack.  A hot
    #: set below the LLC size re-hits every step (nanocar's car
    #: subgraph); one above it thrashes (Al-1000's full-system sweeps).
    hot_set_factor: float = 1.3
    #: fraction of force-phase irregular reads that hit other threads'
    #: partitions (ghost atoms at partition boundaries)
    shared_read_fraction: float = 0.25
    #: bytes of short-lived Vector3 garbage allocated per force term
    temp_bytes_per_term: float = 40.0
    #: per-thread TLAB recycling window the churn cycles through; the
    #: buffer itself stays cache-resident (little DRAM traffic) but its
    #: residency *pollutes* the LLC, evicting useful data (§V-B)
    temp_tlab_bytes: float = 0.75 * 2**20
    #: whether temp churn is modelled at all (ablation toggle)
    include_temp_churn: bool = True
    #: master-thread cycles to enqueue one task
    submit_cycles_per_task: float = 1500.0
    #: master-thread cycles per atom per step to refresh the display
    #: (the benchmarks ran with "the graphical display set to the
    #: default size"); a serial fraction in every configuration
    display_cycles_per_atom: float = 40.0
    #: reduction flops per (thread copy x atom x component)
    reduce_flops_per_element: float = 1.0


#: the calibrated defaults, shared by every "params=None" call site —
#: CostParams is frozen, so one instance is safe to hand out forever
#: (constructing it fresh showed up in the replay profile)
DEFAULT_COST_PARAMS = CostParams()


class MachineCostModel:
    """Prices one workload's step reports for a given thread partition."""

    def __init__(
        self,
        n_atoms: int,
        ranges: Sequence[Range],
        params: Optional[CostParams] = None,
        name: str = "wl",
        fuse_rebuild: bool = True,
        hot_bytes_per_step: Optional[float] = None,
        force_ranges: Optional[Sequence[Range]] = None,
    ):
        if n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1: {n_atoms}")
        self.n_atoms = n_atoms
        self.ranges = list(ranges)
        self.n_threads = len(self.ranges)
        #: irregular phases (forces / rebuild) may be decomposed finer
        #: than one task per thread — each chunk writes its own
        #: privatized force copy, and the reduction reads *every* copy,
        #: so finer granularity has a real, priced cost
        self.force_ranges = (
            list(force_ranges) if force_ranges is not None else self.ranges
        )
        params = params if params is not None else DEFAULT_COST_PARAMS
        self.params = params
        self.name = name
        self.fuse_rebuild = fuse_rebuild
        # region sizes follow the *hot* set — the bytes one step cycles
        # through — not the total heap: re-read data stays cached iff
        # the hot set fits the LLC
        if hot_bytes_per_step is None:
            hot_bytes_per_step = params.working_set_bytes
        hot = max(hot_bytes_per_step * params.hot_set_factor, 64 * 1024)
        self.hot_bytes = hot
        # partitions are shared regions: neighbor threads read each
        # other's boundary atoms, and the writer's socket is their home
        # (cross-socket readers pay the remote penalty — the Table III
        # topology effect)
        self.part_regions = [
            Region(
                f"{name}.part{t}",
                max(1, int(hot * (hi - lo) / n_atoms)),
                shared=True,
            )
            for t, (lo, hi) in enumerate(self.ranges)
        ]
        #: privatized force arrays, one per force task (read by
        #: everyone during reduction)
        self.force_regions = [
            Region(f"{name}.forces{t}", n_atoms * 24, shared=True)
            for t in range(len(self.force_ranges))
        ]
        #: young-generation churn (per thread TLAB, fixed size)
        self.tmp_regions = [
            Region(f"{name}.tmp{t}", int(params.temp_tlab_bytes))
            for t in range(self.n_threads)
        ]
        # step-invariant tables: they depend only on the partition, so
        # every step's pricing reuses them.  Per force chunk: (region,
        # fraction) of each partition it overlaps, and the regions of
        # the other partitions it gathers ghost atoms from
        self._chunk_parts = []
        for lo, hi in self.force_ranges:
            overlap = self._part_overlap(lo, hi)
            own_parts = {s for s, _frac in overlap}
            self._chunk_parts.append((
                [(self.part_regions[s], frac) for s, frac in overlap],
                [
                    self.part_regions[s]
                    for s in range(self.n_threads) if s not in own_parts
                ],
            ))
        #: the reduce phase's costs (frozen, so shared by every step)
        self._reduce_table = tuple(self._reduce_costs())

    # -- helpers -----------------------------------------------------------

    def _share(
        self, work: PhaseWork, ranges: Optional[Sequence[Range]] = None
    ) -> List[float]:
        """Fraction of the phase's work owned by each task range.

        Plain floats: every byte and cycle count priced from a share
        inherits its type, and the burst loop runs much faster on
        Python floats than on numpy scalars.  ``float(sum) / total`` is
        the same IEEE division numpy performs, so each value is the
        same double it was as an ``np.float64``."""
        ranges = self.ranges if ranges is None else ranges
        per_atom = work.per_atom
        total = float(per_atom.sum())
        if total <= 0:
            return [0.0] * len(ranges)
        return [float(per_atom[lo:hi].sum()) / total for lo, hi in ranges]

    def _part_overlap(self, lo: int, hi: int) -> List[Tuple[int, float]]:
        """(thread index, fraction of [lo, hi)) for each thread
        partition a force chunk overlaps — chunks read their atoms from
        whichever partition regions actually hold them."""
        span = max(1, hi - lo)
        out: List[Tuple[int, float]] = []
        for t, (tlo, thi) in enumerate(self.ranges):
            ov = min(hi, thi) - max(lo, tlo)
            if ov > 0:
                out.append((t, ov / span))
        return out

    def _uniform_costs(self, work: PhaseWork, label: str) -> List[WorkCost]:
        """Per-thread costs for an atom-uniform streaming phase
        (predictor / corrector)."""
        p = self.params
        shares = self._share(work)
        costs = []
        for t, share in enumerate(shares):
            reads = []
            writes = []
            if work.bytes_regular > 0:
                n_bytes = (
                    work.bytes_regular * share * p.regular_amplification
                )
                reads.append(Traffic(self.part_regions[t], n_bytes))
                # updating positions/velocities re-homes the partition
                # on the executing thread's socket
                writes.append(
                    Traffic(self.part_regions[t], n_bytes * 0.5, write=True)
                )
            costs.append(
                WorkCost(
                    cycles=work.flops * share * p.cycles_per_flop,
                    reads=tuple(reads),
                    writes=tuple(writes),
                    label=label,
                )
            )
        return costs

    def _force_like_costs(
        self, work: PhaseWork, label: str
    ) -> List[WorkCost]:
        """Per-task costs for irregular gather phases (forces,
        neighbor rebuild) — one per ``force_ranges`` chunk."""
        p = self.params
        ranges = self.force_ranges
        shares = self._share(work, ranges)
        costs = []
        for t, share in enumerate(shares):
            lo, hi = ranges[t]
            irregular = (
                work.bytes_irregular * share * p.irregular_amplification
            )
            regular = work.bytes_regular * share * p.regular_amplification
            reads = []
            overlap, others = self._chunk_parts[t]
            if irregular > 0:
                ghost = irregular * p.shared_read_fraction if others else 0.0
                own = irregular - ghost
                for region, frac in overlap:
                    reads.append(Traffic(region, own * frac))
                if others:
                    # boundary atoms gathered from neighbor partitions;
                    # remote when a partition is homed on another socket
                    per_other = ghost / len(others)
                    reads += [
                        Traffic(region, per_other) for region in others
                    ]
            if regular > 0:
                for region, frac in overlap:
                    reads.append(Traffic(region, regular * frac))
            if p.include_temp_churn and work.terms > 0:
                churn = work.terms * share * p.temp_bytes_per_term
                reads.append(
                    Traffic(self.tmp_regions[t % self.n_threads], churn)
                )
            writes = (
                Traffic(
                    self.force_regions[t],
                    work.terms and (hi - lo) * 24.0,
                    write=True,
                ),
            )
            costs.append(
                WorkCost(
                    cycles=work.flops * share * p.cycles_per_flop,
                    reads=tuple(reads),
                    writes=writes if work.terms else (),
                    label=label,
                )
            )
        return costs

    def _reduce_costs(self) -> List[WorkCost]:
        """Phase 5: each thread sums all copies over its atom range.
        Every privatized force copy is read, so finer force chunks make
        this phase strictly more expensive — the granularity trade the
        autotuner weighs."""
        p = self.params
        n_copies = len(self.force_regions)
        costs = []
        for t, (lo, hi) in enumerate(self.ranges):
            span = hi - lo
            reads = tuple(
                Traffic(self.force_regions[s], span * 24.0)
                for s in range(n_copies)
            )
            writes = (Traffic(self.part_regions[t], span * 24.0, write=True),)
            costs.append(
                WorkCost(
                    cycles=n_copies
                    * span
                    * 3
                    * p.reduce_flops_per_element
                    * p.cycles_per_flop,
                    reads=reads,
                    writes=writes,
                    label="reduce",
                )
            )
        return costs

    @staticmethod
    def _merge_phase_work(a: PhaseWork, b: PhaseWork) -> PhaseWork:
        return PhaseWork(
            per_atom=a.per_atom + b.per_atom,
            flops=a.flops + b.flops,
            bytes_irregular=a.bytes_irregular + b.bytes_irregular,
            bytes_regular=a.bytes_regular + b.bytes_regular,
            terms=a.terms + b.terms,
        )

    # -- public ---------------------------------------------------------------

    def master_step_overhead(self) -> WorkCost:
        """Serial master work per step (display refresh)."""
        return WorkCost(
            cycles=self.params.display_cycles_per_atom * self.n_atoms,
            label="display",
        )

    def dispatch_cost(self, n_tasks: int) -> WorkCost:
        """Master cycles to enqueue a phase's tasks."""
        return WorkCost(
            cycles=self.params.submit_cycles_per_task * n_tasks,
            label="dispatch",
        )

    def step_phases(
        self, report: StepReport
    ) -> List[Tuple[str, List[WorkCost]]]:
        """The parallel phases of one timestep as (name, per-thread
        costs) in execution order.  With ``fuse_rebuild`` (the paper's
        design) a rebuild's work is folded into the force tasks instead
        of getting its own barrier."""
        pw = report.phase_work
        phases: List[Tuple[str, List[WorkCost]]] = [
            ("predict", self._uniform_costs(pw["predict"], "predict"))
        ]
        force_work = pw["forces"]
        if report.rebuilt and pw["rebuild"].flops > 0:
            if self.fuse_rebuild:
                force_work = self._merge_phase_work(
                    pw["rebuild"], force_work
                )
            else:
                phases.append(
                    ("rebuild", self._force_like_costs(pw["rebuild"], "rebuild"))
                )
        phases.append(("forces", self._force_like_costs(force_work, "forces")))
        phases.append(("reduce", list(self._reduce_table)))
        phases.append(("correct", self._uniform_costs(pw["correct"], "correct")))
        return phases
