"""Wait-for-graph construction and cycle diagnosis for deadlocks.

When :meth:`Simulator.run` drains its event queue with live non-daemon
processes remaining, something lost a wakeup.  The classic — and most
actionable — case is a lock cycle: process A holds lock L1 and waits on
L2 while process B holds L2 and waits on L1.  This module reconstructs
the wait-for graph from each stuck process's pending request (``p
_waiting_on``) and the locks' holder records, finds a cycle if one
exists, and renders it as an owner/waiter chain so the resulting
:class:`~repro.des.errors.SimulationDeadlock` names the culprits
instead of just counting them.

Processes blocked on resources with no owner (events, latches, empty
stores) appear in the report as terminal waits — they cannot form a
cycle edge but are listed with what they wait on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


def _request_resource(request) -> Tuple[str, Optional[object]]:
    """(human description, semaphore-or-None) for a pending request."""
    sem = getattr(request, "sem", None)
    if sem is not None:
        kind = type(sem).__name__.lower()
        return f"{kind} {sem.name!r}", sem
    store = getattr(request, "store", None)
    if store is not None:
        return f"store {store.name!r}", None
    name = getattr(request, "name", "")
    label = type(request).__name__
    return (f"{label} {name!r}" if name else label), None


def wait_for_edges(processes) -> Dict[object, List[Tuple[str, object]]]:
    """Map each waiting process to ``[(resource description, owner)]``.

    Only lock/semaphore waits produce owner edges; every process still
    gets an entry (possibly empty) so the renderer can describe what it
    is stuck on.
    """
    edges: Dict[object, List[Tuple[str, object]]] = {}
    for proc in processes:
        desc_owners: List[Tuple[str, object]] = []
        request = getattr(proc, "_waiting_on", None)
        if request is not None:
            desc, sem = _request_resource(request)
            if sem is not None:
                for owner in sem.owners():
                    if owner is not proc:
                        desc_owners.append((desc, owner))
        edges[proc] = desc_owners
    return edges


def find_cycle(
    edges: Dict[object, List[Tuple[str, object]]],
) -> Optional[List[Tuple[object, str, object]]]:
    """First wait-for cycle as ``[(waiter, resource, owner), ...]``.

    Deterministic: processes and their edges are explored in the order
    they appear in ``edges`` (insertion order = spawn order).
    """
    done: set = set()

    def dfs(node, chain, on_chain):
        # on_chain[id(p)] == index in `chain` of p's outgoing edge
        on_chain[id(node)] = len(chain)
        for desc, owner in edges.get(node, []):
            if id(owner) in on_chain:
                return chain[on_chain[id(owner)]:] + [(node, desc, owner)]
            if id(owner) in done or owner not in edges:
                continue
            chain.append((node, desc, owner))
            found = dfs(owner, chain, on_chain)
            if found is not None:
                return found
            chain.pop()
        del on_chain[id(node)]
        done.add(id(node))
        return None

    for root in edges:
        if id(root) not in done:
            found = dfs(root, [], {})
            if found is not None:
                return found
    return None


def render_cycle(cycle: List[Tuple[object, str, object]]) -> str:
    """``a -waits-on-> lock 'l2' -held-by-> b -waits-on-> ...`` chain."""
    parts: List[str] = []
    for waiter, resource, owner in cycle:
        parts.append(
            f"{waiter.name} -waits-on-> {resource} -held-by-> {owner.name}"
        )
    return "; ".join(parts)


def describe_waits(processes) -> List[str]:
    """One ``name (waiting on X)`` line fragment per stuck process."""
    out = []
    for proc in processes:
        request = getattr(proc, "_waiting_on", None)
        if request is None:
            out.append(proc.name)
        else:
            desc, _sem = _request_resource(request)
            out.append(f"{proc.name} (waiting on {desc})")
    return out


def diagnose(processes) -> Tuple[List[str], Optional[str]]:
    """(per-process wait descriptions, rendered cycle or None)."""
    procs = sorted(processes, key=lambda p: p.name)
    edges = wait_for_edges(procs)
    cycle = find_cycle(edges)
    return describe_waits(procs), render_cycle(cycle) if cycle else None
