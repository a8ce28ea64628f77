import itertools
from dataclasses import dataclass

import numpy as np
import pytest

import pcmlex.completion
from pcmlex import IncompleteMatrix, build_dag, validate_reciprocal
from pcmlex.completion import LexLpState
from oracles import LexStage, cycle_structure, lex_stage

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


@dataclass
class RecordedStage:
    """One ``solve_lp`` call of a lex run."""

    state: LexLpState  # the state it was called with
    pivots: tuple[int, int]  # the run's pivot count before and after the call
    bound: np.ndarray  # a copy of the frozen bounds at entry, NaN while active
    slacks: np.ndarray  # the basic slacks' values at entry
    lex: LexStage  # what it returned and what its tableau shows, by ``oracles.lex_stage``


@dataclass
class RecordedRun:
    """One lex run: the state ``build_lex_lp`` returned, its cycle sums and its stages."""

    state: LexLpState
    coef: np.ndarray  # cycle sums const + coef @ t of the state's logs, in its triad order
    const: np.ndarray
    stages: list[RecordedStage]


@pytest.fixture
def lex_runs(monkeypatch):
    """Every lex run solved while the test runs, in order, as ``RecordedRun``.

    Wraps the module globals ``completion.build_lex_lp`` and
    ``completion.solve_lp``, the seams the benchmark's tracer counts, and
    asserts ``solve_lp``'s precondition on every call: some triad is
    still active, so some row blocks.
    """
    runs = []
    build, stage_lp = pcmlex.completion.build_lex_lp, pcmlex.completion.solve_lp

    def recording_build(a, logs):
        state = build(a, logs)
        _, _, const, coef = cycle_structure(a, logs, state.triads)
        runs.append(RecordedRun(state, coef, const, []))
        return state

    def recording_lp(state):
        assert np.isnan(state.bound).any()
        run, pivots, bound = runs[-1], state.pivots, state.bound.copy()
        x = state.tab[:, -2] - state.w * state.tab[:, -1]
        slacks = x[state.basic >= len(state.nonbasic)]
        result = stage_lp(state)
        lex = lex_stage(state, result, run.coef, run.const)
        run.stages.append(RecordedStage(state, (pivots, state.pivots), bound, slacks, lex))
        return result

    monkeypatch.setattr(pcmlex.completion, "build_lex_lp", recording_build)
    monkeypatch.setattr(pcmlex.completion, "solve_lp", recording_lp)
    return runs


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
