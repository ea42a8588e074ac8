"""Work-cost descriptors: what one task costs the machine.

The parallel MD engine executes its physics for real (NumPy) and counts
what it did — pairs examined, bond terms evaluated, bytes gathered.
Those counts are converted by :mod:`repro.core.costmodel` into
:class:`WorkCost` objects, which the simulated machine turns into time.

A :class:`WorkCost` has an arithmetic part (``cycles``) and a memory
part (reads/writes against named :class:`~repro.machine.cachestate.Region`
blocks).  The machine applies a roofline rule: a burst's duration is the
*maximum* of its compute time and its memory time, since real cores
overlap outstanding misses with arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.machine.cachestate import Region


@dataclass(frozen=True, slots=True, init=False)
class Traffic:
    """Bytes moved against one region by one task."""

    region: Region
    n_bytes: float
    write: bool = False

    def __init__(self, region: Region, n_bytes: float, write: bool = False):
        if n_bytes < 0:
            raise ValueError(f"negative traffic: {n_bytes}")
        # a cost plan builds tens of thousands of these: fill the slots
        # through their descriptors, which is what a frozen dataclass's
        # own __init__ does through object.__setattr__, at half the cost
        _set_region(self, region)
        _set_n_bytes(self, n_bytes)
        _set_write(self, write)


_set_region = Traffic.region.__set__
_set_n_bytes = Traffic.n_bytes.__set__
_set_write = Traffic.write.__set__


@dataclass(frozen=True, slots=True, init=False)
class WorkCost:
    """The machine-level cost of one task.

    Parameters
    ----------
    cycles:
        Arithmetic work in core clock cycles.
    reads / writes:
        Memory traffic as ``Traffic`` tuples.  Reads check cache warmth;
        writes install into the executing core's LLC and move the
        region's *home* to that socket (later remote readers pay the
        cross-socket penalty).
    label:
        Phase/debug tag carried into scheduler traces.
    """

    cycles: float = 0.0
    reads: Tuple[Traffic, ...] = ()
    writes: Tuple[Traffic, ...] = ()
    label: str = ""
    #: read_bytes + write_bytes, fixed by the frozen traffic tuples —
    #: computed once here because the dispatch hot path checks it per
    #: burst (derived: excluded from init/repr/equality)
    _total_bytes: float = field(init=False, repr=False, compare=False)
    #: (region, n_bytes) per read — what migration_penalty re-fetches;
    #: precomputed because dispatch installs it on the thread per burst
    _hot_regions: tuple = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        cycles: float = 0.0,
        reads: Tuple[Traffic, ...] = (),
        writes: Tuple[Traffic, ...] = (),
        label: str = "",
    ):
        if cycles < 0:
            raise ValueError(f"negative cycles: {cycles}")
        hot = tuple([(t.region, t.n_bytes) for t in reads])
        # slots filled through their descriptors, as in Traffic
        _set_cycles(self, cycles)
        _set_reads(self, reads)
        _set_writes(self, writes)
        _set_label(self, label)
        _set_total_bytes(
            self, sum([n for _r, n in hot]) + sum([t.n_bytes for t in writes])
        )
        _set_hot_regions(self, hot)

    @property
    def read_bytes(self) -> float:
        return sum(t.n_bytes for t in self.reads)

    @property
    def write_bytes(self) -> float:
        return sum(t.n_bytes for t in self.writes)

    @property
    def total_bytes(self) -> float:
        return self._total_bytes

    def arithmetic_intensity(self) -> float:
        """Cycles per byte — the roofline knob.  inf for pure compute."""
        b = self.total_bytes
        return self.cycles / b if b else float("inf")

    def scaled(self, factor: float) -> "WorkCost":
        """Uniformly scale compute and traffic (used by instrumentation
        overhead models, e.g. VisualVM's ~4x inflation)."""
        if factor < 0:
            raise ValueError(f"negative scale: {factor}")
        return WorkCost(
            cycles=self.cycles * factor,
            reads=tuple(
                Traffic(t.region, t.n_bytes * factor, t.write)
                for t in self.reads
            ),
            writes=tuple(
                Traffic(t.region, t.n_bytes * factor, t.write)
                for t in self.writes
            ),
            label=self.label,
        )

    def __add__(self, other: "WorkCost") -> "WorkCost":
        if not isinstance(other, WorkCost):
            return NotImplemented
        return WorkCost(
            cycles=self.cycles + other.cycles,
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            label=self.label or other.label,
        )


_set_cycles = WorkCost.cycles.__set__
_set_reads = WorkCost.reads.__set__
_set_writes = WorkCost.writes.__set__
_set_label = WorkCost.label.__set__
_set_total_bytes = WorkCost._total_bytes.__set__
_set_hot_regions = WorkCost._hot_regions.__set__


def compute_only(cycles: float, label: str = "") -> WorkCost:
    """A pure-arithmetic cost (no memory traffic beyond caches)."""
    return WorkCost(cycles=cycles, label=label)


def streaming(
    cycles: float, region: Region, n_bytes: float, label: str = ""
) -> WorkCost:
    """A cost that reads ``n_bytes`` of one region linearly."""
    return WorkCost(
        cycles=cycles, reads=(Traffic(region, n_bytes),), label=label
    )
