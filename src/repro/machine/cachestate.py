"""Analytic cache-warmth model used during timing simulation.

A full per-access cache simulation (:mod:`repro.machine.cache`) is far
too slow to sit inside the timing loop, so the machine model tracks
*regions* — named data blocks such as "thread 2's atom partition" or
"the neighbor list" — and how many bytes of each region are resident in
every last-level cache.  Residency follows LRU-of-regions semantics:
touching a region installs its missed bytes and pushes least-recently
used regions out once the cache overflows.

This coarse model is exactly what the paper's phenomena need:

* a thread migrating to a core under a different LLC finds zero bytes of
  its partition resident → cold misses (Fig. 2 / Table III),
* threads sharing an LLC keep one copy of shared data warm (Table III,
  8 threads on one 8-core socket),
* a stream of short-lived temporary objects (``Vector3`` churn, §V-B)
  occupies residency and evicts useful data — cache pollution.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Region:
    """A named block of simulated data.

    ``shared`` marks data read by several threads (e.g. ghost atoms,
    reduction buffers); sharing affects cross-socket traffic accounting.
    """

    name: str
    size_bytes: int
    shared: bool = False

    def __post_init__(self):
        if self.size_bytes < 0:
            raise ValueError(f"negative region size: {self.size_bytes}")


class LlcState:
    """Warmth of one last-level cache.

    ``touch(region, n_bytes)`` models reading ``n_bytes`` spread uniformly
    over the region and returns how many bytes missed (must come from
    DRAM or a remote cache).  The hit fraction equals the fraction of the
    region currently resident.
    """

    __slots__ = (
        "llc_id",
        "capacity",
        "_resident",
        "_used",
        "bytes_hit",
        "bytes_missed",
    )

    def __init__(self, llc_id: int, capacity_bytes: int):
        self.llc_id = llc_id
        self.capacity = capacity_bytes
        # region name -> (region, resident_bytes); insertion order = LRU
        self._resident: "OrderedDict[str, Tuple[Region, float]]" = OrderedDict()
        self._used = 0.0
        self.bytes_hit = 0.0
        self.bytes_missed = 0.0

    @property
    def used_bytes(self) -> float:
        return self._used

    def resident_bytes(self, region: Region) -> float:
        """Bytes of ``region`` currently held by this cache."""
        entry = self._resident.get(region.name)
        return entry[1] if entry else 0.0

    def resident_fraction(self, region: Region) -> float:
        """Fraction of ``region`` resident (0 = cold, 1 = fully warm)."""
        if region.size_bytes == 0:
            return 1.0
        return self.resident_bytes(region) / region.size_bytes

    def touch(self, region: Region, n_bytes: float) -> float:
        """Read ``n_bytes`` of ``region``; returns missed bytes.

        :meth:`SimMachine.burst_duration` inlines this arithmetic for
        a burst's reads; the two must stay identical, bit for bit."""
        size = region.size_bytes
        if n_bytes <= 0 or size == 0:
            return 0.0
        # two-arg min() is measurable at this call rate; the branch
        # computes the identical value
        n_bytes = float(n_bytes) if n_bytes <= size else float(size)
        resident = self._resident
        name = region.name
        entry = resident.get(name)
        prev = entry[1] if entry else 0.0
        hit = n_bytes * (prev / size)
        miss = n_bytes - hit
        self.bytes_hit += hit
        self.bytes_missed += miss
        if miss > 0:
            new = prev + miss
            if new > size:
                new = size
            resident[name] = (region, new)
            self._used += new - prev
            if self._used > self.capacity:
                self._evict_overflow(keep=name)
        if name in resident:
            resident.move_to_end(name)
        return miss

    def install(self, region: Region, n_bytes: float) -> None:
        """Place bytes in the cache without counting hits/misses (used
        for write traffic, which allocates lines)."""
        self._install(region, min(n_bytes, region.size_bytes))
        self._promote(region)

    def evict_region(self, region: Region) -> None:
        """Invalidate every byte of one region (coherence action)."""
        entry = self._resident.pop(region.name, None)
        if entry:
            self._used -= entry[1]

    def flush(self) -> None:
        """Drop all residency (cold cache)."""
        self._resident.clear()
        self._used = 0.0

    # -- internals -------------------------------------------------------

    def _promote(self, region: Region) -> None:
        if region.name in self._resident:
            self._resident.move_to_end(region.name)

    def _install(self, region: Region, add_bytes: float) -> None:
        if add_bytes <= 0:
            return
        resident = self._resident
        entry = resident.get(region.name)
        prev = entry[1] if entry else 0.0
        size = region.size_bytes
        new = prev + add_bytes
        if new > size:
            new = size
        resident[region.name] = (region, new)
        self._used += new - prev
        if self._used > self.capacity:
            self._evict_overflow(keep=region.name)

    def _evict_overflow(self, keep: str) -> None:
        while self._used > self.capacity and len(self._resident) > 1:
            name = next(iter(self._resident))
            if name == keep:
                # shrink the protected region last, from its own tail
                break
            _, size = self._resident.pop(name)
            self._used -= size
        if self._used > self.capacity:
            # single region larger than the cache: clamp to capacity
            region, size = self._resident[keep]
            over = self._used - self.capacity
            self._resident[keep] = (region, size - over)
            self._used = self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mb = self._used / 2**20
        return (
            f"LlcState(#{self.llc_id}, {mb:.2f} MB used, "
            f"{len(self._resident)} regions)"
        )
