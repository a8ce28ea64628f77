import numpy as np
import pytest

from pcmlex import (
    CompleteMatrix,
    build_dag,
    cr_optimal_completion,
    dag_to_incomplete_matrix,
    eigenvector_weights,
    incomplete_llsm_weights,
    lemma3_check,
    lex_optimal_completion,
    llsm_weights,
    ratio_matrix,
    transitive_closure_matrix,
    validate_reciprocal,
)
from pcmlex.core import _perron
from pcmlex.errors import (
    CompletionOverflowError,
    ConvergenceFailureError,
    DisconnectedComparisonGraphError,
)

from conftest import random_incomplete, random_reciprocal, random_tree_matrix
from oracles import perron_root_batch, power_iteration_reference


def log_residual_objective(entries: np.ndarray, known: np.ndarray, y: np.ndarray) -> float:
    """Squared log residuals over the known ordered pairs."""
    n = len(y)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j and known[i, j]:
                total += (np.log(entries[i, j]) - (y[i] - y[j])) ** 2
    return total


class TestEigenvector:
    def test_consistent_recovery(self):
        res = eigenvector_weights(ratio_matrix([1, 2, 4]))
        assert res.weights.w == pytest.approx([1 / 7, 2 / 7, 4 / 7], abs=1e-10)
        assert res.lambda_max == pytest.approx(3.0, abs=1e-9)

    def test_all_ones_uniform(self):
        m = CompleteMatrix.from_array(np.ones((4, 4)))
        res = eigenvector_weights(m)
        assert res.weights.w == pytest.approx([0.25] * 4, abs=1e-12)
        assert res.lambda_max == pytest.approx(4.0, abs=1e-10)

    def test_against_dense_eigensolver(self, example2):
        m, _ = lex_optimal_completion(example2)
        res = eigenvector_weights(m)
        assert res.weights.w == pytest.approx(power_iteration_reference(m.entries)[0], abs=1e-8)
        assert res.lambda_max == pytest.approx(perron_root_batch(m.entries[None])[0], abs=1e-9)
        assert res.residual <= 1e-9
        assert res.lambda_max >= m.n

    def test_agrees_with_llsm_on_consistent(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            m = ratio_matrix(np.exp(rng.normal(0, 1, n)))
            assert eigenvector_weights(m).weights.w == pytest.approx(
                llsm_weights(m).w, abs=1e-9
            )


def _assert_matches_power_iteration(entries: np.ndarray) -> None:
    w_ref, lam_ref = power_iteration_reference(entries)
    w, lam = _perron(entries)
    assert np.max(np.abs(w - w_ref)) <= 1e-10
    assert abs(lam - lam_ref) <= 1e-10 * lam_ref


class TestPerronKernel:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_random_matches_power_iteration(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            _assert_matches_power_iteration(random_reciprocal(n, rng))

    @pytest.mark.parametrize("alpha", [1.1, 5.0, 9.0])
    def test_witness_completions_match_power_iteration(self, fig2_dag, alpha):
        a = dag_to_incomplete_matrix(fig2_dag, alpha)
        lex = lex_optimal_completion(a)[0].entries
        cr = cr_optimal_completion(a)[0].entries
        _assert_matches_power_iteration(lex)
        _assert_matches_power_iteration(cr)
        # CR's gradient reads the left Perron vector, the kernel on the transpose
        _assert_matches_power_iteration(cr.T)

    def test_lapack_failure_raises(self, monkeypatch):
        calls = []

        def fail(a):
            calls.append(a)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", fail)
        with pytest.raises(ConvergenceFailureError, match="order-4"):
            eigenvector_weights(CompleteMatrix.from_array(np.ones((4, 4))))
        assert len(calls) == 1

    def test_mixed_sign_vector_raises(self, monkeypatch):
        calls = []

        def mixed(a):
            calls.append(a)
            vecs = np.eye(4)
            vecs[:, 0] = [0.5, -0.2, 0.4, 0.3]
            return np.array([4.0, 0.0, 0.0, 0.0]), vecs

        monkeypatch.setattr(np.linalg, "eig", mixed)
        with pytest.raises(ConvergenceFailureError, match="order-4"):
            eigenvector_weights(CompleteMatrix.from_array(np.ones((4, 4))))
        assert len(calls) == 1


class TestLlsm:
    def test_consistent_recovery(self):
        assert llsm_weights(ratio_matrix([1, 2, 4])).w == pytest.approx(
            [1 / 7, 2 / 7, 4 / 7], abs=1e-12
        )

    def test_all_ones_uniform(self):
        m = CompleteMatrix.from_array(np.ones((5, 5)))
        assert llsm_weights(m).w == pytest.approx([0.2] * 5, abs=1e-12)

    def test_first_order_optimality(self):
        # any +-1e-3 bump of one log weight must increase the objective
        rng = np.random.default_rng(3)
        m = CompleteMatrix.from_array(random_reciprocal(5, rng))
        w = llsm_weights(m).w
        y = np.log(w)
        known = np.ones((5, 5), dtype=bool)
        f0 = log_residual_objective(m.entries, known, y)
        for c in range(5):
            for delta in (1e-3, -1e-3):
                bumped = y.copy()
                bumped[c] += delta
                assert log_residual_objective(m.entries, known, bumped) > f0


    @staticmethod
    def _upper_chain(x: float) -> CompleteMatrix:
        # a_01 = a_02 = a_12 = x: log row means 2L/3, 0, -2L/3 for L = log x
        return CompleteMatrix.from_array([[1, x, x], [1 / x, 1, x], [1 / x, 1 / x, 1]])

    def test_underflowing_weight_raises(self):
        # at x = 1e300 the log weights spread over 4L/3 = 921: exp(-921) is 0
        with pytest.raises(CompletionOverflowError, match="underflow"):
            llsm_weights(self._upper_chain(1e300))

    def test_spread_just_under_the_limit_is_positive(self):
        w = llsm_weights(self._upper_chain(np.exp(0.75 * 743.9))).w
        assert np.all(w > 0)
        assert w[2] < 1e-300


class TestIncompleteLlsm:
    def test_underflowing_weight_raises(self):
        # the chain 0 > 1 > 2 at a = 1e300 has log weights 0, -L, -2L: spread 1381
        x = 1e300
        a = validate_reciprocal([[1, x, None], [1 / x, 1, x], [None, 1 / x, 1]])
        with pytest.raises(CompletionOverflowError, match="underflow"):
            incomplete_llsm_weights(a)

    def test_normalization_underflow_raises(self):
        # five ties above 5 above 6, log gaps 372.15 each: the spread 744.3 keeps
        # exp(-744.3) > 0, but dividing it by the sum 5 gives w_6 = 0
        g = build_dag(7, [(0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (5, 6)])
        a = dag_to_incomplete_matrix(g, float(np.exp(372.15)))
        with pytest.raises(CompletionOverflowError, match="underflow"):
            incomplete_llsm_weights(a)

    def test_reduces_to_llsm_on_complete(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            a = validate_reciprocal(random_reciprocal(n, rng).astype(object))
            assert incomplete_llsm_weights(a).w == pytest.approx(
                llsm_weights(a.to_complete()).w, abs=1e-10
            )

    def test_tree_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_tree_matrix(int(rng.integers(3, 9)), rng)
            w = incomplete_llsm_weights(a).w
            for i, j in a.known_pairs:
                assert a.entries[i, j] == pytest.approx(w[i] / w[j], rel=1e-10)

    def test_gradient_vanishes(self, example2):
        w = incomplete_llsm_weights(example2).w
        y = np.log(w)
        step = 1e-6
        grad = np.zeros(example2.n)
        for c in range(example2.n):
            up, down = y.copy(), y.copy()
            up[c] += step
            down[c] -= step
            grad[c] = (
                log_residual_objective(example2.entries, example2.known, up)
                - log_residual_objective(example2.entries, example2.known, down)
            ) / (2 * step)
        assert np.max(np.abs(grad)) <= 1e-8

    def test_disconnected_rejected(self):
        a = validate_reciprocal(
            [[1, 2, None, None],
             [0.5, 1, None, None],
             [None, None, 1, 3],
             [None, None, 1 / 3, 1]]
        )
        with pytest.raises(DisconnectedComparisonGraphError):
            incomplete_llsm_weights(a)

    def test_scale_invariance_of_ranking(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_incomplete(6, 3, rng)
            c = float(rng.uniform(0.3, 3.0))
            scaled_raw = np.where(a.known, a.entries**c, None)
            for i in range(6):
                scaled_raw[i, i] = 1.0
            scaled = validate_reciprocal(scaled_raw)
            y1 = np.log(incomplete_llsm_weights(a).w)
            y2 = np.log(incomplete_llsm_weights(scaled).w)
            y1 -= y1[0]
            y2 -= y2[0]
            assert y2 == pytest.approx(c * y1, abs=1e-9)
            assert np.array_equal(np.argsort(y1), np.argsort(y2))


def plant_dominant_pair(n: int, rng: np.random.Generator) -> tuple[CompleteMatrix, int, int]:
    """Random matrix where some pair (i, j) satisfies the dominance hypothesis."""
    a = random_reciprocal(n, rng)
    i, j = map(int, rng.choice(n, size=2, replace=False))
    a[i, j] = float(np.exp(rng.uniform(0.1, 1.5)))
    a[j, i] = 1.0 / a[i, j]
    for k in range(n):
        if k in (i, j):
            continue
        a[i, k] = a[j, k] * float(np.exp(rng.uniform(0.0, 1.0)))
        a[k, i] = 1.0 / a[i, k]
    return CompleteMatrix.from_array(a), i, j


class TestLemma3:
    def test_closure_matrix_arcs_satisfy_hypothesis(self, fig2_dag):
        c = transitive_closure_matrix(fig2_dag, 2.0)
        for i, j in fig2_dag.arcs:
            assert lemma3_check(c, i, j)

    def test_all_ones_fails_hypothesis(self):
        m = CompleteMatrix.from_array(np.ones((4, 4)))
        assert not lemma3_check(m, 0, 1)

    def test_same_item_fails(self):
        m = ratio_matrix([1, 2, 4])
        assert not lemma3_check(m, 1, 1)

    def test_dominance_forces_strict_order_both_methods(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            n = int(rng.integers(3, 8))
            m, i, j = plant_dominant_pair(n, rng)
            assert lemma3_check(m, i, j)
            w_em = eigenvector_weights(m).weights.w
            w_ll = llsm_weights(m).w
            assert w_em[i] - w_em[j] > 0
            assert w_ll[i] - w_ll[j] > 0
