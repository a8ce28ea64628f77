import numpy as np
import pytest
from scipy.optimize import linprog

from pcmlex.errors import InfeasibleProblemError, UnboundedProblemError
from pcmlex.simplex import PIVOT_TOL, RATIO_TIE_TOL, solve_simplex


def scipy_reference(c, A, b):
    res = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    return res


def loop_simplex_reference(c, A, b):
    """(x, duals, pivots) by a tableau that recomputes reduced costs at every pivot.

    The same Bland's-rule pivot path as ``solve_simplex``, which instead
    carries the reduced costs as one more tableau row.
    """
    A, b, c = np.atleast_2d(np.asarray(A, float)), np.asarray(b, float), np.asarray(c, float)
    m, n = A.shape
    T = np.hstack([A, np.eye(m)])
    rhs = b.copy()
    basis = np.arange(n, n + m)
    cost = np.concatenate([c, np.zeros(m)])
    it = 0
    while True:
        reduced = cost - cost[basis] @ T
        reduced[basis] = 0.0
        candidates = np.flatnonzero(reduced < -PIVOT_TOL)
        if candidates.size == 0:
            break
        enter = int(candidates[0])
        col = T[:, enter]
        positive = col > PIVOT_TOL
        ratios = np.full(m, np.inf)
        ratios[positive] = rhs[positive] / col[positive]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + RATIO_TIE_TOL * (1.0 + abs(best)))
        row = int(ties[np.argmin(basis[ties])])
        piv = T[row, enter]
        T[row] /= piv
        rhs[row] /= piv
        factor = T[:, enter].copy()
        factor[row] = 0.0
        T -= np.outer(factor, T[row])
        rhs -= factor * rhs[row]
        basis[row] = enter
        it += 1
    x_full = np.zeros(n + m)
    x_full[basis] = rhs
    return x_full[:n], -reduced[n:], it


LP_KINDS = ("generic", "zero_rhs", "duplicate_rows", "ratio_ties", "stage")


def random_lp(kind, rng):
    """(c, A, b) with b >= 0 and a bounded objective, of one of ``LP_KINDS``.

    ``stage`` has the shape of a lexicographic stage LP: two rows per triad
    over columns (d+, d-, w) with right-hand sides z0 - s and z0 + s, zero
    on the triad with the largest |s|, and cost -1 on w. The others bound
    the objective by a last row sum(x) <= b_m; their cost is -1 on one
    random column, the only nonzero, as in a stage LP.
    """
    m, n = int(rng.integers(2, 10)), int(rng.integers(2, 8))
    if kind == "stage":
        q, _ = np.linalg.qr(rng.normal(0, 1, (n, n)))
        C = rng.integers(-1, 2, (m, n)) @ q[:, : int(rng.integers(1, n + 1))]
        s = rng.normal(0, 1, m)
        k = C.shape[1]
        A = np.empty((2 * m, 2 * k + 1))
        A[0::2, :k], A[1::2, :k] = C, -C
        A[:, k : 2 * k] = -A[:, :k]
        A[:, -1] = 1.0
        b = np.empty(2 * m)
        b[0::2], b[1::2] = np.abs(s).max() - s, np.abs(s).max() + s
        c = np.zeros(2 * k + 1)
        c[-1] = -1.0
        return c, A, b
    if kind == "ratio_ties":
        A = rng.integers(-1, 3, (m, n)).astype(float)
        b = rng.integers(0, 4, m).astype(float)
    else:
        A = rng.normal(0, 1, (m, n))
        b = np.abs(rng.normal(0.5, 1, m))
    if kind == "zero_rhs":
        b[rng.random(m) < 0.5] = 0.0
    if kind == "duplicate_rows":
        dup = rng.integers(0, m, int(rng.integers(1, m + 1)))
        A, b = np.vstack([A, A[dup]]), np.concatenate([b, b[dup]])
    A = np.vstack([A, np.ones(n)])
    b = np.append(b, 3.0 if kind == "ratio_ties" else abs(rng.normal(0.5, 1)))
    c = np.zeros(n)
    c[rng.integers(n)] = -1.0
    return c, A, b


class TestKnownSolutions:
    def test_textbook_maximization(self):
        # max 3x + 5y with x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), value 36
        res = solve_simplex(
            [-3, -5],
            [[1, 0], [0, 2], [3, 2]],
            [4, 12, 18],
        )
        assert res.x == pytest.approx([2, 6])
        assert res.objective == pytest.approx(-36)

    def test_negative_rhs_rejected(self):
        # one phase from the slack basis: x = 0 must be feasible
        with pytest.raises(InfeasibleProblemError):
            solve_simplex([1, 1], [[-1, -1], [1, 0]], [-2, 3])

    def test_unbounded(self):
        with pytest.raises(UnboundedProblemError):
            solve_simplex([-1], [[-1]], [0])

    def test_zero_rows(self):
        res = solve_simplex([1.0, 2.0], np.zeros((0, 2)), np.zeros(0))
        assert res.objective == pytest.approx(0.0)

    def test_no_variables(self):
        res = solve_simplex([], np.zeros((0, 0)), [])
        assert res.x.size == 0 and res.duals.size == 0 and res.iterations == 0


class TestDuals:
    def test_dual_signs_and_strong_duality(self):
        # max x + y with x + y <= 2, x - 2y <= 4: binding row priced at -1
        c = [-1, -1]
        A = [[1, 1], [1, -2]]
        b = [2, 4]
        res = solve_simplex(c, A, b)
        assert np.all(res.duals <= 1e-12)
        assert res.objective == pytest.approx(float(np.asarray(b) @ res.duals))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_lps_match_scipy(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 10)), int(rng.integers(2, 8))
        # b >= 0 makes x = 0 feasible, and the last row (sum x <= b_m) bounds
        # the objective, so every seed has an optimum to compare
        A = np.vstack([rng.normal(0, 1, (m, n)), np.ones(n)])
        b = np.abs(rng.normal(0.5, 1, m + 1))
        c = rng.normal(0, 1, n)
        ref = scipy_reference(c, A, b)
        assert ref.status == 0
        res = solve_simplex(c, A, b)
        assert res.objective == pytest.approx(ref.fun, abs=1e-7)
        # primal feasible to tolerance
        assert np.max(A @ res.x - b, initial=0.0) <= 1e-9
        # duals: feasible for the dual (A^T y <= c on x >= 0) and gap-free
        assert np.all(res.duals <= 1e-9)
        assert np.all(A.T @ res.duals <= c + 1e-7)
        assert abs(res.objective - b @ res.duals) <= 1e-7

    def test_determinism(self):
        rng = np.random.default_rng(99)
        A = rng.normal(0, 1, (6, 4))
        b = np.abs(rng.normal(0.5, 1, 6))
        c = rng.normal(0, 1, 4)
        first = solve_simplex(c, A, b)
        second = solve_simplex(c, A, b)
        assert np.array_equal(first.x, second.x)
        assert np.array_equal(first.duals, second.duals)
        assert first.iterations == second.iterations

    @pytest.mark.parametrize("kind", LP_KINDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_degenerate_lps_match_scipy(self, kind, seed):
        rng = np.random.default_rng(1000 + seed)
        c, A, b = random_lp(kind, rng)
        if kind != "stage":
            c = rng.normal(0, 1, len(c))
        ref = scipy_reference(c, A, b)
        assert ref.status == 0
        res = solve_simplex(c, A, b)
        assert res.objective == pytest.approx(ref.fun, abs=1e-7)
        assert np.max(A @ res.x - b, initial=0.0) <= 1e-9
        assert np.all(res.x >= 0.0)
        assert np.all(res.duals <= 1e-9)
        assert np.all(A.T @ res.duals <= c + 1e-7)
        assert abs(res.objective - b @ res.duals) <= 1e-7


class TestLoopReference:
    @pytest.mark.parametrize("kind", LP_KINDS)
    def test_single_cost_bitwise_equal(self, kind):
        # with one cost entry of -1, as in every lexicographic stage LP, the
        # carried reduced-cost row is exactly the recomputed one
        rng = np.random.default_rng(LP_KINDS.index(kind))
        pivots = 0
        for _ in range(40):
            c, A, b = random_lp(kind, rng)
            res = solve_simplex(c, A, b)
            x, duals, it = loop_simplex_reference(c, A, b)
            assert res.x.tobytes() == x.tobytes()
            assert res.duals.tobytes() == duals.tobytes()
            assert res.iterations == it
            pivots += it
        assert pivots > 40

    @pytest.mark.parametrize("kind", LP_KINDS[:-1])
    def test_dense_cost_same_path(self, kind):
        # a dense cost rounds the carried row differently, not the pivot path
        rng = np.random.default_rng(10 + LP_KINDS.index(kind))
        for _ in range(40):
            _, A, b = random_lp(kind, rng)
            c = rng.normal(0, 1, A.shape[1])
            res = solve_simplex(c, A, b)
            x, duals, it = loop_simplex_reference(c, A, b)
            assert res.iterations == it
            assert np.max(np.abs(res.x - x), initial=0.0) <= 1e-12 * (1.0 + np.abs(x).max())
            assert np.max(np.abs(res.duals - duals)) <= 1e-12 * (1.0 + np.abs(duals).max())
