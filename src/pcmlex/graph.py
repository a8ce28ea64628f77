"""Directed acyclic preference graphs and their derived comparison matrices."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import CompleteMatrix, IncompleteMatrix, _canonical_reciprocal, _components, _with_pairs
from .errors import (
    AlphaNotGreaterThanOneError,
    BidirectionalArcError,
    CycleDetectedError,
    DisconnectedError,
)


@dataclass(frozen=True)
class PreferenceDag:
    """Connected directed acyclic graph over n items (vertices 0..n-1).

    ``topo_order`` is the canonical topological order computed at
    construction: among ready vertices, the smallest index goes first.
    """

    n: int
    arcs: frozenset[tuple[int, int]]
    topo_order: tuple[int, ...]

    @property
    def sorted_arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.arcs))


def build_dag(n: int, arcs: Iterable[tuple[int, int]]) -> PreferenceDag:
    """Validate (n, arcs) as a connected DAG and fix its topological order.

    Raises:
        CycleDetectedError: with one witnessing cycle. Every vertex that
            Kahn's pass leaves has a left-over predecessor; walking those
            back from the smallest left-over vertex must repeat one, and the
            repeated stretch, reversed, is the witness.
        DisconnectedError: with the weakly connected components.
        BidirectionalArcError: if some pair appears in both directions.
    """
    if n < 2:
        raise ValueError("a preference graph needs at least 2 vertices")
    arc_set = set()
    for i, j in arcs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"arc ({i}, {j}) out of range for n = {n}")
        if i == j:
            raise _cycle_error([i])
        if (j, i) in arc_set:
            raise BidirectionalArcError(f"both ({i}, {j}) and ({j}, {i}) present")
        arc_set.add((i, j))

    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for i, j in sorted(arc_set):
        succ[i].append(j)
        indeg[j] += 1

    # Kahn's algorithm with a min-heap: smallest ready index first.
    ready = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) < n:
        pred = {j: i for i, j in sorted(arc_set) if indeg[i] and indeg[j]}  # left-over arcs
        walk, seen = [min(pred)], set()
        while walk[-1] not in seen:
            seen.add(walk[-1])
            walk.append(pred[walk[-1]])
        cycle = walk[walk.index(walk[-1]) + 1 :][::-1]
        raise _cycle_error(cycle)

    comps = _components(n, arc_set)
    if len(comps) > 1:
        raise DisconnectedError(
            f"graph has {len(comps)} weakly connected components", components=comps
        )
    return PreferenceDag(n, frozenset(arc_set), tuple(order))


def _cycle_error(cycle: list[int], first: int = 0) -> CycleDetectedError:
    """The error for the witness ``cycle`` (one vertex: a self-loop), numbered from ``first``."""
    v = [str(x + first) for x in cycle]
    if len(v) == 1:
        return CycleDetectedError(f"self-loop at vertex {v[0]}", cycle=cycle)
    return CycleDetectedError("directed cycle " + " -> ".join(v + v[:1]), cycle=cycle)


def reachable(g: PreferenceDag, i: int, j: int) -> bool:
    """True iff a directed walk from i to j exists; False when i == j."""
    return bool(_reach_matrix(g)[i, j])


def _reach_matrix(g: PreferenceDag) -> np.ndarray:
    """Boolean reachability matrix (walks of length >= 1), diagonal False."""
    n = g.n
    reach = np.zeros((n, n), dtype=bool)
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in g.arcs:
        succ[i].append(j)
    # Reverse topological order: successors are final before their parents.
    for u in reversed(g.topo_order):
        for v in succ[u]:
            reach[u] |= reach[v]
            reach[u, v] = True
    return reach


def _check_alpha(alpha: float) -> None:
    if not (alpha > 1.0 and math.isfinite(alpha)):
        raise AlphaNotGreaterThanOneError(f"alpha = {alpha} must exceed 1 and be finite")


def dag_to_incomplete_matrix(g: PreferenceDag, alpha: float) -> IncompleteMatrix:
    """Incomplete matrix with a_ij = alpha per arc (i, j), others missing."""
    _check_alpha(alpha)
    tails, heads = np.array(g.sorted_arcs, dtype=np.intp).reshape(-1, 2).T
    values = _with_pairs(np.eye(g.n), tails, heads, alpha)
    return _canonical_reciprocal(values, values > 0)


def transitive_closure_matrix(g: PreferenceDag, alpha: float) -> CompleteMatrix:
    """Complete matrix fixing c_ij = alpha whenever j is reachable from i.

    Pairs connected in neither direction get c_ij = 1; the lower triangle is
    reciprocal. Every triad of the result has inconsistency at most alpha.
    """
    _check_alpha(alpha)
    n = g.n
    c = _with_pairs(np.ones((n, n)), *np.nonzero(_reach_matrix(g)), alpha)
    return _canonical_reciprocal(c, np.ones((n, n), dtype=bool)).to_complete()


def random_cdag(n: int, arc_density: float, seed: int) -> PreferenceDag:
    """Random connected DAG, deterministic given the seed.

    Draws a random topological order, keeps each forward pair independently
    with probability ``arc_density``, then repairs connectivity by linking
    the root of each weak component to the root of the next one (roots and
    components ordered by topological position), which preserves acyclicity.
    """
    if n < 2:
        raise ValueError("a preference graph needs at least 2 vertices")
    if not 0.0 < arc_density <= 1.0:
        raise ValueError("arc_density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    pos = np.empty(n, dtype=int)
    pos[order] = np.arange(n)

    arcs: set[tuple[int, int]] = set()
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < arc_density:
                arcs.add((int(order[a]), int(order[b])))

    comps = _components(n, arcs)
    if len(comps) > 1:
        comps.sort(key=lambda comp: min(pos[v] for v in comp))
        roots = [min(comp, key=lambda v: pos[v]) for comp in comps]
        for a, b in zip(roots, roots[1:]):
            arcs.add((a, b))
    return build_dag(n, arcs)
