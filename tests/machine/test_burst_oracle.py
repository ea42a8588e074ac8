"""Fused burst pricing against the per-read form it replaced.

:meth:`SimMachine.burst_duration` prices a burst's reads in one loop:
the LLC warmth update of :meth:`LlcState.touch`, inlined, and the
memory controller's rate sampled once per burst.  The oracle below is
the earlier form, kept verbatim: a batched ``touch_many`` (a scalar
loop below 32 reads, a numpy path for distinct eviction-free batches
at or above it) followed by one :meth:`MemoryController.transfer_time`
call per read.  Both must return the same float and leave the LLC and
the controller in the same state, bit for bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.machine import MACHINES, SimMachine
from repro.machine.cachestate import Region
from repro.machine.cost import Traffic, WorkCost

_BATCH_MIN = 32


# -- the oracle: burst pricing as it was ------------------------------------


def _touch_many_numpy(llc, traffics):
    resident = llc._resident
    names = []
    sizes = np.empty(len(traffics))
    wants = np.empty(len(traffics))
    prevs = np.empty(len(traffics))
    seen = set()
    for i, t in enumerate(traffics):
        region = t.region
        size = region.size_bytes
        if size == 0 or t.n_bytes <= 0 or region.name in seen:
            return None
        seen.add(region.name)
        names.append(region.name)
        sizes[i] = size
        wants[i] = t.n_bytes
        entry = resident.get(region.name)
        prevs[i] = entry[1] if entry else 0.0
    reads = np.minimum(wants, sizes)
    hits = reads * (prevs / sizes)
    misses = reads - hits
    news = np.minimum(sizes, prevs + misses)
    if llc._used + float(np.sum(news - prevs)) > llc.capacity:
        return None
    out = []
    used = llc._used
    bytes_hit = llc.bytes_hit
    bytes_missed = llc.bytes_missed
    for i, t in enumerate(traffics):
        hit = float(hits[i])
        miss = float(misses[i])
        bytes_hit += hit
        bytes_missed += miss
        if miss > 0:
            new = float(news[i])
            resident[names[i]] = (t.region, new)
            used += new - prevs[i]
        if names[i] in resident:
            resident.move_to_end(names[i])
        out.append(miss)
    llc._used = used
    llc.bytes_hit = bytes_hit
    llc.bytes_missed = bytes_missed
    return out


def _touch_many(llc, traffics, paths):
    if len(traffics) >= _BATCH_MIN:
        fast = _touch_many_numpy(llc, traffics)
        if fast is not None:
            paths.append("numpy")
            return fast
    paths.append("scalar")
    return [llc.touch(t.region, t.n_bytes) for t in traffics]


def oracle_burst_duration(machine, pu, cost, paths):
    compute = cost.cycles / machine.spec.freq_hz
    llc = machine._llc_of_pu[pu]
    ctrl = machine._ctrl_of_pu[pu]
    socket = machine._socket_of_pu[pu]
    region_home = machine.region_home
    mem = 0.0
    reads = cost.reads
    if reads:
        misses = _touch_many(llc, reads, paths)
        for t, miss in zip(reads, misses):
            region = t.region
            home = region_home.get(region.name)
            remote = region.shared and home is not None and home != socket
            mem += ctrl.transfer_time(miss, remote=remote, extra_streams=1)
    for t in cost.writes:
        llc.install(t.region, t.n_bytes)
        region_home[t.region.name] = socket
        for other in machine.llc_states:
            if other is not llc:
                other.evict_region(t.region)
        mem += ctrl.transfer_time(
            t.n_bytes * machine.writeback_fraction, extra_streams=1
        )
    if compute <= mem:
        return mem + machine.overlap * compute
    return compute + machine.overlap * mem


# -- the comparison -----------------------------------------------------------


def _llc_state(llc):
    return (
        [(name, region, float(n)) for name, (region, n) in llc._resident.items()],
        float(llc._used),
        llc.bytes_hit,
        llc.bytes_missed,
    )


def _ctrl_state(ctrl):
    return (ctrl.bytes_served, ctrl.bytes_remote, ctrl._active)


def _machine(capacity, active, homes, warm):
    m = SimMachine(MACHINES["x7560x4"])
    for llc in m.llc_states:
        llc.capacity = capacity
    for ctrl in m.memory.controllers:
        for _ in range(active):
            ctrl.begin_stream()
    m.region_home.update(homes)
    for llc_id, region, n_bytes in warm:
        m.llc_states[llc_id].touch(region, n_bytes)
    return m


def _assert_same(a, b):
    for la, lb in zip(a.llc_states, b.llc_states):
        assert _llc_state(la) == _llc_state(lb)
    for ca, cb in zip(a.memory.controllers, b.memory.controllers):
        assert _ctrl_state(ca) == _ctrl_state(cb)
    assert a.region_home == b.region_home


def _run_both(capacity, active, homes, warm, bursts):
    """Price ``bursts`` (pu, cost) on twin machines; returns the paths
    the oracle's ``touch_many`` took."""
    old = _machine(capacity, active, homes, warm)
    new = _machine(capacity, active, homes, warm)
    paths = []
    for pu, cost in bursts:
        want = oracle_burst_duration(old, pu, cost, paths)
        got = new.burst_duration(pu, cost)
        assert got == want
        _assert_same(old, new)
    return paths


_N_REGIONS = 48
_SIZES = [0, 1, 64, 4096, 65_536, 2**20, 3 * 2**20]


@st.composite
def _scenario(draw):
    regions = [
        Region(
            f"r{i}",
            draw(st.sampled_from(_SIZES)),
            shared=draw(st.booleans()),
        )
        for i in range(_N_REGIONS)
    ]
    n_bytes = st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=4 * 2**20),
    )

    def traffic(write=False):
        return st.builds(
            Traffic, st.sampled_from(regions), n_bytes, st.just(write)
        )

    # distinct-region batches reach the oracle's numpy path; sampled
    # ones bring duplicates and zero-size regions into the same batch
    distinct = st.lists(
        st.sampled_from(regions), min_size=0, max_size=_N_REGIONS,
        unique_by=lambda r: r.name,
    ).flatmap(lambda rs: st.tuples(*[
        st.builds(Traffic, st.just(r), n_bytes) for r in rs
    ]))
    reads = st.one_of(
        distinct,
        st.lists(traffic(), min_size=0, max_size=40).map(tuple),
    )
    cost = st.builds(
        WorkCost,
        cycles=st.floats(min_value=0.0, max_value=1e7),
        reads=reads,
        writes=st.lists(traffic(True), max_size=2).map(tuple),
    )
    bursts = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=63), cost),
        min_size=1, max_size=4,
    ))
    capacity = draw(st.sampled_from([2**18, 2**21, 8 * 2**20, 24 * 2**20]))
    active = draw(st.integers(min_value=0, max_value=6))
    homes = draw(st.dictionaries(
        st.sampled_from([r.name for r in regions]),
        st.integers(min_value=0, max_value=3),
        max_size=_N_REGIONS,
    ))
    warm = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.sampled_from(regions),
            st.floats(min_value=0.0, max_value=4 * 2**20),
        ),
        max_size=12,
    ))
    return capacity, active, homes, warm, bursts


@settings(max_examples=300, deadline=None)
@given(_scenario())
def test_fused_pricing_equals_per_read_oracle(scenario):
    _run_both(*scenario)


def _distinct_batch(n, size, shared=True):
    return tuple(
        Traffic(Region(f"d{i}", size, shared=shared), size * 0.75)
        for i in range(n)
    )


def test_oracle_numpy_path_agrees_on_a_large_distinct_batch():
    # 40 distinct, non-empty, eviction-free reads: the oracle takes its
    # numpy path, half of them homed on another socket
    reads = _distinct_batch(40, 65_536)
    homes = {t.region.name: i % 2 for i, t in enumerate(reads)}
    warm = [(0, reads[3].region, 10_000.0), (0, reads[7].region, 65_536.0)]
    cost = WorkCost(cycles=1e6, reads=reads)
    paths = _run_both(24 * 2**20, 3, homes, warm, [(0, cost), (0, cost)])
    assert paths == ["numpy", "numpy"]


def test_oracle_scalar_fallbacks_agree():
    big = _distinct_batch(36, 2**20)
    dup = big[:20] + big[:20]
    empty = big[:35] + (Traffic(Region("z", 0), 100.0),)
    zero = big[:35] + (Traffic(big[35].region, 0.0),)
    bursts = [
        (0, WorkCost(cycles=1.0, reads=big)),    # evicts mid-batch
        (1, WorkCost(cycles=1.0, reads=dup)),    # duplicate regions
        (2, WorkCost(cycles=1.0, reads=empty)),  # zero-size region
        (3, WorkCost(cycles=1.0, reads=zero)),   # zero-byte read
        (4, WorkCost(cycles=1.0, reads=big[:5])),  # below 32 reads
    ]
    paths = _run_both(8 * 2**20, 0, {}, [], bursts)
    assert paths == ["scalar"] * 5
