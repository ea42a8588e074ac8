"""Bit-exact oracle for the one-pass critical path.

``longest_path`` + ``oracle_critical_path`` are the span-graph
extraction as it stood before its one-pass rewrite: every serial node
weighed by a sum over the whole spine, then a generic Kahn-order
longest path over a string-keyed DAG.  ``critical_path`` must equal it
exactly — the ``repr`` of ``seconds`` and ``total_work_seconds``, the
chain, and ``nodes`` in insertion order — on the Fig. 1 grid, the
Table III grid, every pinned observe cell (chaos and work stealing
included), and arbitrary series-parallel inputs built to force ties.
``longest_path`` itself is checked on hand-built DAGs with known
answers.  The attribution payload of a small grid is pinned by digest,
so ``critical_path_seconds``, ``speedup_bound`` and ``parallelism``
are held end to end.
"""

import hashlib
import json
from collections import defaultdict, deque
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulate import capture_trace
from repro.machine import MACHINES
from repro.obs import critical_path
from repro.obs.attribution import merge_intervals, observe_run
from repro.obs.critical_path import CriticalPath
from repro.obs.tracer import PhaseWindow
from repro.runcache.sweep import attribution_sweep
from repro.workloads import BUILDERS
from tests.obs.test_observe_digests import CELLS, observe_cell

# -- the oracle --------------------------------------------------------------


def longest_path(
    weights: Dict[str, float],
    edges: Sequence[Tuple[str, str]],
) -> Tuple[float, List[str]]:
    """Longest (maximum-weight) path through a DAG, in Kahn order.

    ``weights`` maps node id → non-negative duration; ``edges`` are
    (from, to) dependencies.  Returns (total weight, node chain).
    Raises ``ValueError`` on a cycle or an edge naming an unknown node.
    """
    succs: Dict[str, List[str]] = defaultdict(list)
    indeg: Dict[str, int] = {node: 0 for node in weights}
    for a, b in edges:
        if a not in weights or b not in weights:
            raise ValueError(f"edge ({a!r}, {b!r}) references unknown node")
        succs[a].append(b)
        indeg[b] += 1
    queue = deque(sorted(n for n, d in indeg.items() if d == 0))
    dist = {n: weights[n] for n in queue}
    best_pred: Dict[str, str] = {}
    seen = 0
    while queue:
        node = queue.popleft()
        seen += 1
        for nxt in succs[node]:
            cand = dist[node] + weights[nxt]
            if nxt not in dist or cand > dist[nxt]:
                dist[nxt] = cand
                best_pred[nxt] = node
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    if seen != len(weights):
        raise ValueError("cycle in span graph")
    if not dist:
        return 0.0, []
    end = max(dist, key=lambda n: (dist[n], n))
    chain = [end]
    while chain[-1] in best_pred:
        chain.append(best_pred[chain[-1]])
    chain.reverse()
    return dist[end], chain


def oracle_critical_path(window_exec, serial_intervals, sim_seconds):
    """The span graph built node by node, weighed by whole-spine sums,
    and handed to :func:`longest_path`."""
    weights: Dict[str, float] = {}
    phases: Dict[str, Tuple[str, float]] = {}
    edges: List[Tuple[str, str]] = []

    def serial_weight(lo: float, hi: float) -> float:
        return sum(
            max(0.0, min(e, hi) - max(s, lo)) for s, e in serial_intervals
        )

    def add(node: str, phase: str, dur: float) -> None:
        weights[node] = dur
        phases[node] = (phase, dur)

    prev_serial = "serial/0"
    first_begin = window_exec[0][0].begin if window_exec else sim_seconds
    add(prev_serial, "serial", serial_weight(0.0, first_begin))
    for k, (window, tasks) in enumerate(window_exec):
        nxt_begin = (
            window_exec[k + 1][0].begin
            if k + 1 < len(window_exec)
            else sim_seconds
        )
        next_serial = f"serial/{k + 1}"
        add(next_serial, "serial", serial_weight(window.end, nxt_begin))
        if tasks:
            for uid, exec_s in tasks:
                node = f"{window.name}/{window.step}/{uid}"
                add(node, window.name, exec_s)
                edges.append((prev_serial, node))
                edges.append((node, next_serial))
        else:
            edges.append((prev_serial, next_serial))
        prev_serial = next_serial
    seconds, chain = longest_path(weights, edges)
    return CriticalPath(
        seconds=seconds,
        chain=chain,
        nodes=phases,
        total_work_seconds=sum(weights.values()),
    )


def assert_same(window_exec, serial_intervals, sim_seconds) -> None:
    got = critical_path(window_exec, serial_intervals, sim_seconds)
    ref = oracle_critical_path(window_exec, serial_intervals, sim_seconds)
    assert repr(got.seconds) == repr(ref.seconds)
    assert repr(got.total_work_seconds) == repr(ref.total_work_seconds)
    assert got.chain == ref.chain
    assert list(got.nodes.items()) == list(ref.nodes.items())


# -- longest_path on hand-built DAGs -----------------------------------------


def test_diamond_picks_heavier_branch():
    weights = {"s": 1.0, "a": 5.0, "b": 2.0, "t": 1.0}
    edges = [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")]
    seconds, chain = longest_path(weights, edges)
    assert seconds == pytest.approx(7.0)
    assert chain == ["s", "a", "t"]


def test_isolated_heavy_node_can_win():
    weights = {"a": 1.0, "b": 1.0, "lone": 10.0}
    seconds, chain = longest_path(weights, [("a", "b")])
    assert seconds == pytest.approx(10.0)
    assert chain == ["lone"]


def test_empty_graph():
    assert longest_path({}, []) == (0.0, [])


def test_cycle_raises():
    weights = {"a": 1.0, "b": 1.0}
    with pytest.raises(ValueError, match="cycle"):
        longest_path(weights, [("a", "b"), ("b", "a")])


def test_unknown_node_raises():
    with pytest.raises(ValueError, match="unknown node"):
        longest_path({"a": 1.0}, [("a", "ghost")])


def test_tie_broken_deterministically():
    """Equal-weight endpoints: the lexicographically-last wins, so two
    identical calls give identical chains (determinism contract)."""
    weights = {"x": 2.0, "y": 2.0}
    r1 = longest_path(dict(weights), [])
    r2 = longest_path(dict(weights), [])
    assert r1 == r2 == (2.0, ["y"])


# -- replayed observations ---------------------------------------------------

#: the Fig. 1 grid: 20 steps on the i7-920, 1–4 threads
FIG1 = [(w, n) for w in ("salt", "nanocar", "Al-1000") for n in (1, 2, 3, 4)]

_fig1_traces = {}


def fig1_observation(workload: str, n: int):
    if workload not in _fig1_traces:
        _fig1_traces[workload] = capture_trace(BUILDERS[workload](), 20)
    wl = BUILDERS[workload]()
    return observe_run(
        _fig1_traces[workload], wl.system.n_atoms, MACHINES["i7-920"], n,
        name=wl.name, workload=wl.name,
    )


@pytest.mark.parametrize("workload,n", FIG1)
def test_fig1_grid_matches_oracle(workload, n):
    obs = fig1_observation(workload, n)
    assert_same(obs.window_exec, obs.serial_intervals, obs.sim_seconds)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_pinned_observe_cells_match_oracle(cell):
    """The Table III grid (its twelve cells are pinned there), an
    i7-920 cell, the chaos plan, a stealing and a pinned pool."""
    obs = observe_cell(cell)
    assert_same(obs.window_exec, obs.serial_intervals, obs.sim_seconds)


# -- arbitrary series-parallel inputs ----------------------------------------

#: few distinct values, so equal distances (the tie-breaks) are common
QUARTERS = st.sampled_from([0.0, 0.25, 0.5])
WEIGHTS = st.one_of(QUARTERS, st.floats(0.0, 1.0))


@st.composite
def span_inputs(draw):
    """Windows in time order, each with 0–5 tasks (uids may repeat),
    and a merged spine of quarter-point or arbitrary intervals (maybe
    none).  Phase names sort on both sides of ``serial``, so the end
    node's name tie-break goes either way."""
    t = draw(QUARTERS)
    window_exec = []
    for k in range(draw(st.integers(0, 6))):
        begin, end = t, t + draw(QUARTERS)
        name = draw(st.sampled_from(["forces", "predict", "update"]))
        tasks = draw(
            st.lists(
                st.tuples(st.sampled_from(["a", "b", "c", "d"]), WEIGHTS),
                max_size=5,
            )
        )
        window_exec.append(
            (PhaseWindow(name=name, step=k, begin=begin, end=end), tasks)
        )
        t = end + draw(QUARTERS)
    point = st.one_of(
        st.sampled_from([i / 4 for i in range(int(t * 4) + 1)]),
        st.floats(0.0, t),
    )
    raw = draw(st.lists(st.tuples(point, point), max_size=8))
    spine = merge_intervals(
        [(min(a, b), max(a, b)) for a, b in raw], 0.0, t
    )
    return window_exec, spine, t


@settings(max_examples=400, deadline=None)
@given(span_inputs())
def test_random_series_parallel_inputs_match_oracle(inputs):
    assert_same(*inputs)


def test_edge_cases_match_oracle():
    """No windows at all; an empty spine (the int ``0`` sum); an empty
    window; a zero-weight final serial tied with a task whose name
    sorts after ``serial``; a repeated ``(window, uid)``."""
    w0 = PhaseWindow(name="update", step=0, begin=1.0, end=2.0)
    w1 = PhaseWindow(name="forces", step=1, begin=2.5, end=3.0)
    cases = [
        ([], [], 0.0),
        ([], [(0.0, 1.0)], 2.0),
        ([(w0, [])], [], 2.0),
        ([(w0, [("a", 0.5), ("b", 0.5)])], [(0.0, 1.0)], 2.0),
        ([(w0, [("a", 0.25), ("b", 0.5), ("a", 0.5)]), (w1, [])],
         [(0.0, 1.0), (2.0, 2.5)], 3.0),
    ]
    for case in cases:
        assert_same(*case)


# -- the attribution payload, end to end ---------------------------------------

#: SHA-256 of ``json.dumps(payload, sort_keys=True)`` for
#: ``attribution_sweep(steps=3, threads=(1, 2, 4))``, recorded with the
#: Kahn-order critical path
PAYLOAD_DIGEST = (
    "a24b357cb4dcac9abb1a5f61414ab7de493ac5912d6c142def3d2b68cf38433b"
)


def test_attribution_payload_matches_pinned_digest():
    payload, _result = attribution_sweep(steps=3, threads=(1, 2, 4), jobs=1)
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PAYLOAD_DIGEST
