"""Structure generators: lattices, packings, and molecular graphs."""

from __future__ import annotations

import math
from typing import List, Optional, Set, Tuple

import numpy as np

#: a molecule's bond topology: ``graph[i]`` is the set of atoms bonded
#: to atom ``i``
BondGraph = List[Set[int]]


def cubic_lattice(
    shape: Tuple[int, int, int], spacing: float, origin=(0.0, 0.0, 0.0)
) -> np.ndarray:
    """Simple cubic lattice of ``prod(shape)`` sites."""
    if min(shape) < 1 or spacing <= 0:
        raise ValueError("shape must be >= 1 per axis, spacing positive")
    grid = np.stack(
        np.meshgrid(*[np.arange(s) for s in shape], indexing="ij"), axis=-1
    ).reshape(-1, 3)
    return np.asarray(origin, dtype=float) + grid * spacing


def rocksalt_lattice(
    cells: int, spacing: float, origin=(0.0, 0.0, 0.0)
) -> Tuple[np.ndarray, np.ndarray]:
    """NaCl structure: positions and alternating +1/-1 charges."""
    if cells < 1 or spacing <= 0:
        raise ValueError("cells must be >= 1, spacing positive")
    n = 2 * cells
    coords = np.stack(
        np.meshgrid(*([np.arange(n)] * 3), indexing="ij"), axis=-1
    ).reshape(-1, 3)
    positions = np.asarray(origin, dtype=float) + coords * spacing
    charges = np.where(coords.sum(axis=1) % 2 == 0, 1.0, -1.0)
    return positions, charges


def random_packing(
    n: int,
    lo: np.ndarray,
    hi: np.ndarray,
    min_dist: float,
    rng: np.random.Generator,
    max_tries: int = 20000,
) -> np.ndarray:
    """Dart-throwing placement with a minimum separation."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(hi <= lo):
        raise ValueError("hi must exceed lo on every axis")
    placed: List[np.ndarray] = []
    tries = 0
    while len(placed) < n:
        tries += 1
        if tries > max_tries:
            raise RuntimeError(
                f"could not place {n} atoms with min_dist={min_dist} "
                f"(placed {len(placed)})"
            )
        cand = rng.uniform(lo, hi)
        if placed:
            arr = np.array(placed)
            if np.min(np.linalg.norm(arr - cand, axis=1)) < min_dist:
                continue
        placed.append(cand)
    return np.array(placed)


def fibonacci_sphere(n: int, radius: float, center) -> np.ndarray:
    """Near-uniform points on a sphere (fullerene-ish wheel shell)."""
    if n < 1 or radius <= 0:
        raise ValueError("n must be >= 1, radius positive")
    k = np.arange(n, dtype=float) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / n)
    theta = math.pi * (1.0 + 5.0**0.5) * k
    pts = np.stack(
        [
            np.cos(theta) * np.sin(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(phi),
        ],
        axis=1,
    )
    return np.asarray(center, dtype=float) + radius * pts


def nearest_neighbor_bonds(
    positions: np.ndarray, k: int = 3
) -> np.ndarray:
    """Bond each point to its k nearest neighbors (deduplicated,
    (M, 2) with i < j) — builds wheel shells and irregular frames."""
    n = len(positions)
    if n < 2:
        return np.zeros((0, 2), dtype=np.int64)
    d2 = np.sum(
        (positions[:, None, :] - positions[None, :, :]) ** 2, axis=-1
    )
    np.fill_diagonal(d2, np.inf)
    kk = min(k, n - 1)
    nearest = np.argsort(d2, axis=1)[:, :kk]
    edges = set()
    for i in range(n):
        for j in nearest[i]:
            edges.add((min(i, int(j)), max(i, int(j))))
    return np.array(sorted(edges), dtype=np.int64)


def grid_bonds(shape: Tuple[int, int]) -> np.ndarray:
    """Ladder/grid bonds for a 2-D lattice laid out row-major."""
    rows, cols = shape
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return np.array(edges, dtype=np.int64)


def bond_graph(n_atoms: int, bonds: np.ndarray) -> BondGraph:
    """The molecule's bond topology as an adjacency list of sets."""
    g: BondGraph = [set() for _ in range(n_atoms)]
    for i, j in np.asarray(bonds, dtype=np.int64).tolist():
        g[i].add(j)
        g[j].add(i)
    return g


def _stride_sample(rows: list, width: int, limit: Optional[int]) -> np.ndarray:
    """Deterministically keep ``limit`` rows spread uniformly over the
    candidate list (truncating from the front would concentrate the
    surviving terms on low-index atoms and skew the work profile)."""
    if not rows:
        return np.zeros((0, width), dtype=np.int64)
    arr = np.array(rows, dtype=np.int64)
    if limit is None or limit >= len(arr):
        return arr
    idx = (np.arange(limit) * len(arr)) // limit
    return arr[idx]


def angle_triples(
    graph: BondGraph, limit: Optional[int] = None
) -> np.ndarray:
    """(a, vertex, c) triples for every pair of bonds sharing a vertex,
    deterministic; ``limit`` keeps a uniform subsample."""
    triples = []
    for b, bonded in enumerate(graph):
        nbrs = sorted(bonded)
        for x in range(len(nbrs)):
            for y in range(x + 1, len(nbrs)):
                triples.append((nbrs[x], b, nbrs[y]))
    return _stride_sample(triples, 3, limit)


def torsion_quads(
    graph: BondGraph, limit: Optional[int] = None
) -> np.ndarray:
    """(a, b, c, d) simple 3-edge paths, over the bonds as sorted
    ``(b, c)`` pairs with ``b < c``, deterministic; ``limit`` keeps a
    uniform subsample."""
    quads = []
    for b, bonded in enumerate(graph):
        nbrs_b = sorted(bonded)
        for c in (x for x in nbrs_b if x > b):
            for a in nbrs_b:
                if a in (b, c):
                    continue
                for d in sorted(graph[c]):
                    if d in (a, b, c):
                        continue
                    quads.append((a, b, c, d))
    return _stride_sample(quads, 4, limit)
