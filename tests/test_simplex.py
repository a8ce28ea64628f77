import numpy as np
import pytest
from scipy.optimize import linprog

from pcmlex.errors import InfeasibleProblemError, UnboundedProblemError
from pcmlex.simplex import solve_simplex


def scipy_reference(c, A, b):
    res = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    return res


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
