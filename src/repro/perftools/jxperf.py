"""JXPerf-style PMU-watchpoint profiler over the synthetic access stream.

"Pinpointing Performance Inefficiencies in Java" (PAPERS.md) showed
that wasteful memory operations — dead stores, silent stores, redundant
loads — can be found with ~5% overhead by PMU address sampling plus the
four x86 debug registers: sample every Nth retired memory access, arm a
hardware watchpoint on the sampled address, and classify the *pair* of
accesses when the watchpoint traps.  This is exactly the tool the
paper's authors lacked in 2010: it attributes wasteful operations to
allocation/usage *sites*, so the ``Vector3`` temp churn of §V-B shows
up as the top-ranked site instead of an anonymous cache-miss rate.

Definitions (as the real tool detects them):

* **dead store** — a store whose next access to the address is another
  store: the value was never read.  Attributed to the first (killed)
  store's site.
* **silent store** — a store writing the value the address already
  holds.  Attributed to the storing site; detected at sample time via
  the trap handler's read-back (:attr:`Access.prev_value`).
* **redundant load** — a load whose previous access to the address was
  a load of the same value.  Attributed to the second load's site.

:func:`exact_classify` is the full-stream ground truth (the simulator
can afford what hardware cannot); :class:`JxPerf` is the modeled tool —
deterministic period sampling, at most ``max_watchpoints`` armed
addresses with FIFO eviction (the 4-debug-register budget), and counts
extrapolated by the sampling period.  The gap between the two is the
tool's *measured* accuracy, one leaderboard row.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.machine.cachestate import LlcState, Region
from repro.perftools.memtrace import Access, AccessStream

#: JXPerf's default sampling period is a prime (avoids lockstep with
#: loop strides); ours is scaled to the synthetic stream's length
DEFAULT_SAMPLE_PERIOD = 97

#: x86 debug registers DR0-DR3
DEBUG_REGISTERS = 4

#: categories a wasteful access falls into
CATEGORIES = ("dead_store", "silent_store", "redundant_load")


@dataclass
class SiteCounts:
    """Wasteful-operation tally of one site."""

    dead_store: float = 0.0
    silent_store: float = 0.0
    redundant_load: float = 0.0

    @property
    def total(self) -> float:
        return self.dead_store + self.silent_store + self.redundant_load

    def as_dict(self) -> Dict[str, float]:
        return {
            "dead_store": self.dead_store,
            "silent_store": self.silent_store,
            "redundant_load": self.redundant_load,
        }


@dataclass
class WastefulReport:
    """Per-site wasteful-operation profile (exact or sampled)."""

    counts: Dict[str, SiteCounts] = field(default_factory=dict)
    #: accesses inspected (stream length for exact, samples for JxPerf)
    accesses: int = 0
    #: site -> Java class (carried through for class-blind comparisons)
    site_classes: Dict[str, str] = field(default_factory=dict)

    def site(self, name: str) -> SiteCounts:
        """The (auto-created) tally of one site."""
        return self.counts.setdefault(name, SiteCounts())

    def total(self, category: str) -> float:
        """Summed count of one category across every site."""
        return sum(getattr(c, category) for c in self.counts.values())

    def ranking(self) -> List[Tuple[str, float, Dict[str, float]]]:
        """Sites by total wasteful operations, worst first."""
        rows = [
            (site, c.total, c.as_dict())
            for site, c in self.counts.items()
            if c.total > 0
        ]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows

    def top_site(self) -> Optional[str]:
        """The worst-offending site, or None for a clean profile."""
        rows = self.ranking()
        return rows[0][0] if rows else None

    def distribution(self) -> Dict[Tuple[str, str], float]:
        """Normalized mass per (site, category); empty if nothing found."""
        mass = {
            (site, cat): getattr(c, cat)
            for site, c in self.counts.items()
            for cat in CATEGORIES
            if getattr(c, cat) > 0
        }
        total = sum(mass.values())
        if not total:
            return {}
        return {k: v / total for k, v in mass.items()}

    def render(self) -> str:
        """ASCII per-site table, worst site first."""
        lines = [
            f"{'site':<36} {'dead':>10} {'silent':>10} "
            f"{'red.load':>10} {'total':>10}"
        ]
        for site, total, breakdown in self.ranking():
            lines.append(
                f"{site:<36} {breakdown['dead_store']:>10.0f} "
                f"{breakdown['silent_store']:>10.0f} "
                f"{breakdown['redundant_load']:>10.0f} {total:>10.0f}"
            )
        return "\n".join(lines)


def exact_classify(stream: AccessStream) -> WastefulReport:
    """Full-stream ground-truth classification (every access inspected)."""
    report = WastefulReport(site_classes=dict(stream.site_classes))
    last: Dict[int, Access] = {}
    for ev in stream.events:
        prev = last.get(ev.address)
        if ev.kind == "store":
            if prev is not None and prev.kind == "store":
                report.site(prev.site).dead_store += 1
            if ev.prev_value == ev.value:
                report.site(ev.site).silent_store += 1
        else:
            if (
                prev is not None
                and prev.kind == "load"
                and prev.value == ev.value
            ):
                report.site(ev.site).redundant_load += 1
        last[ev.address] = ev
    report.accesses = len(stream.events)
    return report


class JxPerf:
    """The modeled PMU-sampling + debug-register watchpoint profiler.

    ``sample_period`` counts retired memory accesses between PMU
    samples (deterministic; ``seed`` shifts the phase).  Each sample
    arms a watchpoint on the accessed address; only
    ``max_watchpoints`` addresses can be armed at once (hardware gives
    four debug registers), so arming a fifth silently evicts the
    oldest — the scarcity that makes long-range redundant loads the
    hardest pattern for the real tool to see.  Trap classifications
    are extrapolated by the sampling period.
    """

    def __init__(
        self,
        sample_period: int = DEFAULT_SAMPLE_PERIOD,
        max_watchpoints: int = DEBUG_REGISTERS,
        seed: int = 0,
    ):
        if sample_period < 1:
            raise ValueError(
                f"sample_period must be >= 1: {sample_period}"
            )
        if max_watchpoints < 1:
            raise ValueError(
                f"max_watchpoints must be >= 1: {max_watchpoints}"
            )
        self.sample_period = sample_period
        self.max_watchpoints = max_watchpoints
        self.seed = seed
        self.samples_taken = 0
        self.traps = 0
        self.evictions = 0

    def profile(self, stream: AccessStream) -> WastefulReport:
        """Sampled wasteful-operation estimate (period-extrapolated)."""
        report = WastefulReport(site_classes=dict(stream.site_classes))
        period = self.sample_period
        scale = float(period)
        armed: "OrderedDict[int, Access]" = OrderedDict()
        countdown = (self.seed % period) + 1
        self.samples_taken = self.traps = self.evictions = 0
        for ev in stream.events:
            watch = armed.pop(ev.address, None)
            if watch is not None:
                self.traps += 1
                if watch.kind == "store" and ev.kind == "store":
                    report.site(watch.site).dead_store += scale
                elif (
                    watch.kind == "load"
                    and ev.kind == "load"
                    and watch.value == ev.value
                ):
                    report.site(ev.site).redundant_load += scale
            countdown -= 1
            if countdown == 0:
                countdown = period
                self.samples_taken += 1
                if ev.kind == "store" and ev.prev_value == ev.value:
                    # the trap handler reads the old value back before
                    # the store retires — silent stores classify at the
                    # sample itself, no watchpoint needed
                    report.site(ev.site).silent_store += scale
                armed[ev.address] = ev
                if len(armed) > self.max_watchpoints:
                    armed.popitem(last=False)
                    self.evictions += 1
        report.accesses = self.samples_taken
        return report


def distribution_error(
    displayed: WastefulReport, truth: WastefulReport
) -> float:
    """Total-variation distance between two wasteful-op profiles.

    0 = the displayed (site, category) attribution matches the truth
    exactly; 1 = completely disjoint.  A tool that finds nothing while
    the truth is non-empty scores 1 (maximally wrong), and 0 when both
    are empty (correctly reporting a clean program).
    """
    p = truth.distribution()
    q = displayed.distribution()
    if not p and not q:
        return 0.0
    if not p or not q:
        return 1.0
    # sorted, so the float sum does not follow the string hash seed
    keys = sorted(set(p) | set(q))
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def class_blind_error(truth: WastefulReport) -> float:
    """Error of the best *class-histogram* tool (the 2010 heap viewer).

    VisualVM's live-objects view shows per-class totals with no site or
    thread attribution (§V-B), so the sharpest statement it supports is
    "class C wastes X" — modeled as each class's true mass spread
    uniformly over that class's sites.  The total-variation distance to
    the per-site truth is the attribution information the view loses.
    """
    p = truth.distribution()
    if not p:
        return 0.0
    by_class: Dict[str, List[Tuple[str, str]]] = {}
    sites_of_class: Dict[str, set] = {}
    for site in truth.site_classes:
        sites_of_class.setdefault(
            truth.site_classes[site], set()
        ).add(site)
    class_mass: Dict[str, float] = {}
    for (site, cat), mass in p.items():
        cls = truth.site_classes.get(site, site)
        class_mass[cls] = class_mass.get(cls, 0.0) + mass
        by_class.setdefault(cls, []).append((site, cat))
    q: Dict[Tuple[str, str], float] = {}
    for cls, mass in class_mass.items():
        sites = sorted(sites_of_class.get(cls, {s for s, _ in by_class[cls]}))
        cats = sorted({cat for _, cat in by_class[cls]})
        cells = [(s, c) for s in sites for c in cats]
        for cell in cells:
            q[cell] = q.get(cell, 0.0) + mass / len(cells)
    # sorted, so the float sum does not follow the string hash seed
    keys = sorted(set(p) | set(q))
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def llc_miss_bytes(
    stream: AccessStream,
    capacity_bytes: int,
    *,
    page_bytes: int = 4096,
    access_bytes: int = 8,
) -> Dict[str, float]:
    """Bytes missed in one LLC, split into atom-graph vs temp traffic.

    Replays the access stream page-granular through
    :class:`~repro.machine.cachestate.LlcState`; comparing the
    atom-graph misses of a churn stream against its churn-free twin
    measures the cache pollution the temp objects inflict (§V-B's
    "force out the very data this approach is attempting to keep in
    the caches").
    """
    llc = LlcState(0, capacity_bytes)
    temp_pages = {a // page_bytes for a in stream.temp_addresses}
    regions: Dict[int, Region] = {}
    missed = {"atom": 0.0, "temp": 0.0}
    for ev in stream.events:
        page = ev.address // page_bytes
        region = regions.get(page)
        if region is None:
            region = Region(f"page-{page:x}", page_bytes)
            regions[page] = region
        miss = llc.touch(region, access_bytes)
        missed["temp" if page in temp_pages else "atom"] += miss
    return missed


def pollution_report(
    churn: AccessStream,
    clean: AccessStream,
    capacity_bytes: int,
) -> Dict[str, float]:
    """Extra atom-graph LLC misses attributable to the temp churn."""
    with_churn = llc_miss_bytes(churn, capacity_bytes)
    without = llc_miss_bytes(clean, capacity_bytes)
    return {
        "atom_miss_bytes": with_churn["atom"],
        "atom_miss_bytes_clean": without["atom"],
        "pollution_bytes": max(
            with_churn["atom"] - without["atom"], 0.0
        ),
        "temp_miss_bytes": with_churn["temp"],
    }
