import itertools

import numpy as np
import pytest

import pcmlex.completion
from pcmlex import IncompleteMatrix, build_dag, validate_reciprocal

# Worked 4x4 instance: a12=2, a24=8, a23=a34=1, pairs (1,3) and (1,4) missing.
EXAMPLE2_RAW = [
    [1, 2, None, None],
    [0.5, 1, 1, 8],
    [None, 1, 1, 1],
    [None, 0.125, 1, 1],
]

# Minimal 7-vertex counterexample graph, arcs 1-based.
FIG2_ARCS_1BASED = [
    (1, 2), (1, 6), (1, 7), (2, 3), (2, 4), (3, 4),
    (3, 5), (4, 5), (4, 6), (5, 6), (5, 7),
]


@pytest.fixture(autouse=True)
def _empty_lex_memo():
    """Each test starts with no lex result kept, whatever the tests before it solved."""
    pcmlex.completion._memo.clear()


@pytest.fixture
def example2():
    return validate_reciprocal(EXAMPLE2_RAW)


@pytest.fixture
def fig2_dag():
    return build_dag(7, [(i - 1, j - 1) for i, j in FIG2_ARCS_1BASED])


def random_reciprocal(n: int, rng: np.random.Generator, sigma: float = 0.8) -> np.ndarray:
    """Random reciprocal positive matrix with lognormal upper triangle."""
    a = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            a[i, j] = float(np.exp(rng.normal(0.0, sigma)))
            a[j, i] = 1.0 / a[i, j]
    return a


def random_incomplete(
    n: int,
    n_missing: int,
    rng: np.random.Generator,
    sigma: float = 0.8,
) -> IncompleteMatrix:
    """Random incomplete matrix whose comparison graph stays connected."""
    max_removable = n * (n - 1) // 2 - (n - 1)
    if n_missing > max_removable:
        raise ValueError(f"cannot remove {n_missing} pairs at n={n} and stay connected")
    while True:
        a = random_reciprocal(n, rng, sigma=sigma)
        raw = a.astype(object)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        removed = 0
        for i, j in pairs:
            if removed == n_missing:
                break
            saved_ij, saved_ji = raw[i, j], raw[j, i]
            raw[i, j] = raw[j, i] = None
            cand = validate_reciprocal(raw)
            if cand.comparison_graph_connected():
                removed += 1
            else:
                raw[i, j], raw[j, i] = saved_ij, saved_ji
        if removed == n_missing:
            return validate_reciprocal(raw)


def random_tree_matrix(n: int, rng: np.random.Generator, sigma: float = 0.8) -> IncompleteMatrix:
    """Incomplete matrix whose comparison graph is a random spanning tree."""
    raw = np.full((n, n), None, dtype=object)
    for i in range(n):
        raw[i, i] = 1.0
    for v in range(1, n):
        u = int(rng.integers(0, v))
        val = float(np.exp(rng.normal(0.0, sigma)))
        raw[u, v] = val
        raw[v, u] = 1.0 / val
    return validate_reciprocal(raw)
