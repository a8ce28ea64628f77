import math

import numpy as np
import pytest

import pcmlex.completion as completion
from pcmlex import (
    TriadIndex,
    all_triads,
    build_dag,
    build_lex_lp,
    cr_optimal_completion,
    dag_to_incomplete_matrix,
    gci_optimal_completion,
    inconsistency_profile,
    is_consistent,
    lex_optimal_completion,
    random_cdag,
    saaty_lambda_max,
    solve_lp,
    transitive_closure_matrix,
    validate_reciprocal,
)
from pcmlex.errors import (
    DisconnectedComparisonGraphError,
    InfeasibleProblemError,
    NoMissingEntriesError,
)

from conftest import FIG2_ARCS_1BASED, random_incomplete, random_reciprocal, random_tree_matrix
from oracles import (
    cr_lambda_grid_oracle,
    dense_lambda_max,
    dense_perron_vector,
    lex_highs_oracle,
    lex_less_equal,
    lex_ti_grid_oracle,
)

LN2 = math.log(2.0)
LN8 = math.log(8.0)


def _traced_lex(monkeypatch, a):
    """Lex completion of ``a`` with every simplex (b, pivots) and stage solution."""
    simplex_calls, stages = [], []
    simplex, stage_lp = completion.solve_simplex, completion.solve_lp

    def recording_simplex(c, A, b):
        res = simplex(c, A, b)
        simplex_calls.append((np.asarray(b, dtype=float).copy(), res.iterations))
        return res

    def recording_lp(state):
        sol = stage_lp(state)
        stages.append(sol)
        return sol

    monkeypatch.setattr(completion, "solve_simplex", recording_simplex)
    monkeypatch.setattr(completion, "solve_lp", recording_lp)
    completion.lex_optimal_completion(a)
    return simplex_calls, stages


def _warm_start_inputs():
    fig2 = build_dag(7, [(i - 1, j - 1) for i, j in FIG2_ARCS_1BASED])
    cases = [pytest.param(fig2, alpha, id=f"fig2-{alpha}") for alpha in (1.1, 5.0, 9.0)]
    return cases + [pytest.param(random_cdag(10, 0.3, 123), 5.0, id="cdag10-5.0")]


class TestBuildLexLp:
    def test_example2_structure(self, example2):
        state = build_lex_lp(example2)
        assert state.missing_pairs == ((0, 2), (0, 3))
        assert len(state.triads) == 4
        # four triads, one absolute-value pair of rows each
        assert state.constraint_count == 8

    def test_complete_rejected(self):
        a = validate_reciprocal([[1, 2], [0.5, 1]])
        with pytest.raises(NoMissingEntriesError):
            build_lex_lp(a)

    def test_disconnected_rejected(self):
        a = validate_reciprocal(
            [[1, 2, None, None],
             [0.5, 1, None, None],
             [None, None, 1, 3],
             [None, None, 1 / 3, 1]]
        )
        with pytest.raises(DisconnectedComparisonGraphError):
            build_lex_lp(a)

    def test_single_missing_3x3(self):
        a = validate_reciprocal([[1, 2, None], [0.5, 1, 4], [None, 0.25, 1]])
        state = build_lex_lp(a)
        assert state.constraint_count == 2
        sol = solve_lp(state)
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        # the single free variable zeroes the only cycle sum: x13 = 2 * 4
        assert math.exp(sol.t[state.missing_pairs.index((0, 2))]) == pytest.approx(8.0, rel=1e-8)


class TestSolveLp:
    def test_example2_first_stage(self, example2):
        state = build_lex_lp(example2)
        sol = solve_lp(state)
        assert sol.objective == pytest.approx(LN8, abs=1e-8)
        assert sol.objective / LN2 == pytest.approx(3.0, abs=1e-8)
        # the constant triad (2,3,4) carries the whole (negative) price
        assert sol.duals[state.triads.index(TriadIndex(1, 2, 3))] == pytest.approx(-1.0, abs=1e-9)
        active_sum = float(sol.duals.sum())
        assert active_sum == pytest.approx(-1.0, abs=1e-9)

    def test_example2_second_stage_unique(self, example2):
        state = build_lex_lp(example2)
        first = solve_lp(state)
        pos = state.triads.index(TriadIndex(1, 2, 3))
        state.freeze(pos, first.objective)
        second = solve_lp(state)
        assert second.objective == pytest.approx(LN2, abs=1e-8)
        assert second.t[state.missing_pairs.index((0, 2))] / LN2 == pytest.approx(2.0, abs=1e-7)
        assert second.t[state.missing_pairs.index((0, 3))] / LN2 == pytest.approx(3.0, abs=1e-7)

    def test_every_triad_frozen_objective_zero(self, example2):
        state = build_lex_lp(example2)
        for pos in range(len(state.triads)):
            state.freeze(pos, 5.0)
        sol = solve_lp(state)
        assert sol.objective == 0.0
        assert np.array_equal(sol.t, np.zeros(2))

    def test_tree_objective_zero(self):
        rng = np.random.default_rng(3)
        a = random_tree_matrix(5, rng)
        sol = solve_lp(build_lex_lp(a))
        assert sol.objective <= 1e-9

    @pytest.mark.parametrize("dag,alpha", _warm_start_inputs())
    def test_every_stage_starts_feasible(self, monkeypatch, dag, alpha):
        # every stage LP starts at the previous optimum: no right-hand side is
        # negative, so x = 0 is a feasible start for the one-phase simplex
        simplex_calls, stages = _traced_lex(monkeypatch, dag_to_incomplete_matrix(dag, alpha))
        assert len(stages) > 1
        assert len(simplex_calls) == len(stages)
        for b, _ in simplex_calls:
            assert np.all(b >= 0.0)
        for sol in stages:
            assert sol.feasibility_residual <= 1e-9
            assert sol.duality_gap <= 1e-7

    def test_start_off_the_optimum_raises(self, example2):
        # a frozen triad whose |cycle sum| at t exceeds its bound by more than
        # rounding leaves x = 0 infeasible; solve_lp must not return
        state = build_lex_lp(example2)
        sol = solve_lp(state)
        pos = int(np.flatnonzero(state.has_missing)[0])
        state.freeze(pos, sol.objective)
        state.t = state.t + 3.0 * (sol.objective + 1.0) * state.coef[pos]
        s = state.cycle_sums(state.t)[pos]
        assert abs(s) - state.bound[pos] > completion.OBJ_RTOL * state.scale
        with pytest.raises(InfeasibleProblemError):
            solve_lp(state)

    def test_pivot_count_pinned(self, monkeypatch):
        # deterministic under Bland's rule; started from t = 0 at every stage
        # the same completion takes about 40,000 pivots
        a = dag_to_incomplete_matrix(random_cdag(10, 0.3, 123), 5.0)
        simplex_calls, _ = _traced_lex(monkeypatch, a)
        assert sum(pivots for _, pivots in simplex_calls) <= 4000

    def test_solution_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            a = random_incomplete(int(rng.integers(4, 6)), 2, rng)
            sol = solve_lp(build_lex_lp(a))
            assert sol.feasibility_residual <= 1e-9
            assert sol.duality_gap <= 1e-7


class TestLexCompletion:
    def test_example2_full_reproduction(self, example2):
        m, audit = lex_optimal_completion(example2)
        assert m[0, 2] == pytest.approx(4.0, abs=1e-6)
        assert m[0, 3] == pytest.approx(8.0, abs=1e-6)
        assert audit[0].triad == TriadIndex(1, 2, 3)
        assert audit[0].ti == pytest.approx(8.0, abs=1e-6)
        # second stage settles at log 2
        assert math.log(audit[1].ti) == pytest.approx(LN2, abs=1e-8)
        theta = inconsistency_profile(m).theta
        assert theta == pytest.approx([8.0, 2.0, 2.0, 2.0], abs=1e-6)

    def test_complete_input_identity(self):
        a = validate_reciprocal([[1, 2], [0.5, 1]])
        m, audit = lex_optimal_completion(a)
        assert audit == []
        assert np.array_equal(m.entries, a.entries)

    def test_tree_consistent_no_freezes(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_tree_matrix(int(rng.integers(3, 8)), rng)
            m, audit = lex_optimal_completion(a)
            assert audit == []
            assert is_consistent(m, 1e-9)

    def test_fig2_not_worse_than_closure(self, fig2_dag):
        alpha = 2.0
        a = dag_to_incomplete_matrix(fig2_dag, alpha)
        b, _ = lex_optimal_completion(a)
        theta_b = inconsistency_profile(b).theta
        theta_c = inconsistency_profile(transitive_closure_matrix(fig2_dag, alpha)).theta
        assert lex_less_equal(theta_b, theta_c, tol=1e-9)

    def test_known_entries_and_reciprocity_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_incomplete(5, 2, rng)
            m, _ = lex_optimal_completion(a)
            for i, j in a.known_pairs:
                assert m.entries[i, j] == a.entries[i, j]
                assert m.entries[j, i] == a.entries[j, i]
            for i in range(5):
                for j in range(i + 1, 5):
                    assert m.entries[j, i] == 1.0 / m.entries[i, j]

    def test_monotone_audit(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            a = random_incomplete(int(rng.integers(4, 7)), int(rng.integers(1, 4)), rng)
            _, audit = lex_optimal_completion(a)
            tis = [f.ti for f in audit]
            assert all(x >= y - 1e-9 for x, y in zip(tis, tis[1:]))
            assert [f.stage for f in audit] == list(range(1, len(audit) + 1))

    def test_unique_under_triad_permutation(self):
        rng = np.random.default_rng(17)
        for trial in range(8):
            a = random_incomplete(5, 2, rng)
            base, audit = lex_optimal_completion(a)
            triads = all_triads(5)
            perm = [triads[int(k)] for k in rng.permutation(len(triads))]
            permuted, audit_p = lex_optimal_completion(a, triad_order=tuple(perm))
            assert np.max(np.abs(permuted.entries - base.entries)) <= 1e-7
            # the canonical audit order does not depend on the triad order
            assert [(f.triad, f.stage) for f in audit_p] == [(f.triad, f.stage) for f in audit]
            assert [f.ti for f in audit_p] == pytest.approx([f.ti for f in audit], rel=1e-12)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_matches_highs_oracle_on_cdags(self, n):
        seed = 1000 * n
        for alpha in (2.0, 5.0, 9.0):
            while True:
                g = random_cdag(n, 0.4, seed)
                seed += 1
                if len(g.arcs) < n * (n - 1) // 2:
                    break
            _assert_matches_highs(dag_to_incomplete_matrix(g, alpha))

    @pytest.mark.parametrize("n", range(4, 8))
    def test_matches_highs_oracle_on_random_matrices(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(3):
            _assert_matches_highs(random_incomplete(n, int(rng.integers(1, n - 1)), rng))

    def test_dominance_transfer_on_cdags(self):
        rng = np.random.default_rng(19)
        for alpha in (2.0, 5.0, 9.0):
            for trial in range(10):
                g = random_cdag(int(rng.integers(3, 8)), float(rng.uniform(0.2, 0.9)), trial)
                a = dag_to_incomplete_matrix(g, alpha)
                b, _ = lex_optimal_completion(a)
                for i, j in g.arcs:
                    for k in range(g.n):
                        if k not in (i, j):
                            assert b[i, k] >= b[j, k] - 1e-9

    def test_first_stage_bounded_by_alternatives(self):
        rng = np.random.default_rng(23)
        for trial in range(8):
            a = random_incomplete(5, 2, rng)
            _, audit = lex_optimal_completion(a)
            first_max = audit[0].ti if audit else 1.0
            gci_max = inconsistency_profile(gci_optimal_completion(a)).max_ti
            cr_max = inconsistency_profile(cr_optimal_completion(a)[0]).max_ti
            assert first_max <= gci_max + 1e-6
            assert first_max <= cr_max + 1e-6

    def test_first_stage_bounded_by_alpha_on_cdags(self):
        rng = np.random.default_rng(29)
        for alpha in (2.0, 5.0, 9.0):
            g = random_cdag(6, 0.5, int(rng.integers(0, 1000)))
            a = dag_to_incomplete_matrix(g, alpha)
            _, audit = lex_optimal_completion(a)
            first_max = audit[0].ti if audit else 1.0
            assert first_max <= alpha + 1e-9

    def test_lex_beats_grid_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            n = int(rng.integers(4, 6))
            a = random_incomplete(n, int(rng.integers(1, 3)), rng)
            m, _ = lex_optimal_completion(a)
            theta = inconsistency_profile(m).theta
            oracle_theta, _ = lex_ti_grid_oracle(a, step=0.05)
            assert lex_less_equal(theta, oracle_theta, tol=1e-3)

    def test_alpha_invariant_exponents(self, fig2_dag):
        # Every known log entry of a DAG matrix is +/- log alpha, so the
        # completion is alpha ** E for one exponent matrix E; this must hold
        # down to alpha near 1, where every cycle sum is tiny.
        def exponents(alpha):
            m, audit = lex_optimal_completion(dag_to_incomplete_matrix(fig2_dag, alpha))
            return np.log(m.entries) / math.log(alpha), len(audit)

        ref, ref_freezes = exponents(5.0)
        assert ref_freezes > 0
        for alpha in (1 + 1e-10, 1.1, 2.0, 5.0, 9.0):
            e, freezes = exponents(alpha)
            assert freezes == ref_freezes
            assert np.max(np.abs(e - ref)) <= 1e-9

    def test_all_ones_known_completes_to_ones(self):
        a = validate_reciprocal(
            [[1, 1, None, 1], [1, 1, 1, None], [None, 1, 1, 1], [1, None, 1, 1]]
        )
        m, audit = lex_optimal_completion(a)
        assert audit == []
        assert np.array_equal(m.entries, np.ones((4, 4)))

    @pytest.mark.parametrize("seed", range(6))
    def test_transpose_and_relabel_equivariant(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 7))
        a = random_incomplete(n, int(rng.integers(1, 4)), rng)
        base, audit = lex_optimal_completion(a)
        logs = np.log(base.entries)
        tis = sorted(f.ti for f in audit)

        transposed, audit_t = lex_optimal_completion(_transposed(a))
        assert np.max(np.abs(np.log(transposed.entries) - logs.T)) <= 1e-9
        assert sorted(f.ti for f in audit_t) == pytest.approx(tis, rel=1e-9)

        perm = rng.permutation(n)
        relabelled, audit_p = lex_optimal_completion(_permuted(a, perm))
        inv = np.argsort(perm)
        assert np.max(np.abs(np.log(relabelled.entries) - logs[np.ix_(inv, inv)])) <= 1e-9
        assert sorted(f.ti for f in audit_p) == pytest.approx(tis, rel=1e-9)


class TestGciCompletion:
    def test_tree_matches_lex(self):
        rng = np.random.default_rng(37)
        for _ in range(8):
            a = random_tree_matrix(int(rng.integers(3, 8)), rng)
            g = gci_optimal_completion(a)
            l, _ = lex_optimal_completion(a)
            assert np.max(np.abs(g.entries - l.entries)) <= 1e-9
            assert is_consistent(g, 1e-9)

    def test_complete_input_identity(self):
        rng = np.random.default_rng(41)
        a = validate_reciprocal(random_reciprocal(4, rng).astype(object))
        g = gci_optimal_completion(a)
        assert np.array_equal(g.entries, a.entries)

    def test_known_preserved_reciprocity_exact(self):
        rng = np.random.default_rng(43)
        a = random_incomplete(6, 3, rng)
        g = gci_optimal_completion(a)
        for i, j in a.known_pairs:
            assert g.entries[i, j] == a.entries[i, j]
        for i in range(6):
            for j in range(i + 1, 6):
                assert g.entries[j, i] == 1.0 / g.entries[i, j]


def _assert_matches_highs(a):
    """Entries and (triad, TI) freeze multiset agree with successive HiGHS LPs."""
    m, audit = lex_optimal_completion(a)
    entries, oracle_audit = lex_highs_oracle(a)
    assert np.max(np.abs(np.log(m.entries) - np.log(entries))) <= 1e-9
    ours = sorted((tuple(f.triad), f.ti) for f in audit)
    theirs = sorted((tuple(tr), ti) for tr, ti in oracle_audit)
    assert [tr for tr, _ in ours] == [tr for tr, _ in theirs]
    assert [ti for _, ti in ours] == pytest.approx([ti for _, ti in theirs], rel=1e-9)


def _permuted(a, perm):
    """The incomplete matrix with item i relabelled perm[i]."""
    raw = np.full((a.n, a.n), None, dtype=object)
    for i in range(a.n):
        for j in range(a.n):
            if a.known[i, j]:
                raw[perm[i], perm[j]] = a.entries[i, j]
    return validate_reciprocal(raw)


def _transposed(a):
    """The incomplete matrix with every comparison reversed."""
    raw = np.where(a.known, a.entries, None).T
    return validate_reciprocal(raw)


class TestCrCompletion:
    @staticmethod
    def _cr_instances():
        rng = np.random.default_rng(73)
        for _ in range(8):
            n = int(rng.integers(4, 7))
            yield random_incomplete(n, int(rng.integers(1, 4)), rng)

    def test_stationary_and_no_worse_than_gci(self, fig2_dag):
        fig2 = [dag_to_incomplete_matrix(fig2_dag, alpha) for alpha in (1.5, 2.0, 5.0, 9.0)]
        for a in [*self._cr_instances(), *fig2]:
            m, lam = cr_optimal_completion(a)
            x = m.entries
            v, u = dense_perron_vector(x), dense_perron_vector(x.T)
            for i, j in a.missing_pairs:
                grad = (u[i] * x[i, j] * v[j] - u[j] * x[j, i] * v[i]) / (u @ v)
                assert abs(grad) <= 1e-6
            assert lam <= dense_lambda_max(gci_optimal_completion(a).entries) + 1e-12

    def test_relabel_invariant(self, fig2_dag):
        rng = np.random.default_rng(79)
        fig2 = [dag_to_incomplete_matrix(fig2_dag, alpha) for alpha in (2.0, 9.0)]
        for a in [*self._cr_instances(), *fig2]:
            perm = rng.permutation(a.n)
            base, lam = cr_optimal_completion(a)
            relabelled, lam_p = cr_optimal_completion(_permuted(a, perm))
            expected = np.log(base.entries)[np.ix_(np.argsort(perm), np.argsort(perm))]
            assert np.max(np.abs(np.log(relabelled.entries) - expected)) <= 1e-6
            assert lam_p == pytest.approx(lam, abs=1e-12)

    def test_tree_consistent_minimal_lambda(self):
        rng = np.random.default_rng(47)
        for _ in range(6):
            n = int(rng.integers(3, 7))
            a = random_tree_matrix(n, rng)
            m, lam = cr_optimal_completion(a)
            assert is_consistent(m, 1e-8)
            assert lam == pytest.approx(n, abs=1e-8)

    def test_complete_input_identity(self):
        rng = np.random.default_rng(53)
        a = validate_reciprocal(random_reciprocal(4, rng).astype(object))
        m, lam = cr_optimal_completion(a)
        assert np.array_equal(m.entries, a.entries)
        assert lam == pytest.approx(saaty_lambda_max(m), abs=1e-9)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(59)
        for _ in range(4):
            a = random_incomplete(4, 2, rng)
            _, lam = cr_optimal_completion(a)
            lam_grid, _ = cr_lambda_grid_oracle(a)
            assert lam == pytest.approx(lam_grid, abs=1e-3)

    def test_matches_fine_grid_oracle(self):
        # single instance against the full-resolution brute force
        rng = np.random.default_rng(71)
        a = random_incomplete(4, 2, rng)
        _, lam = cr_optimal_completion(a)
        lam_grid, _ = cr_lambda_grid_oracle(a, step=0.01, refine_rounds=1)
        assert lam == pytest.approx(lam_grid, abs=1e-3)

    def test_initialization_independent(self):
        rng = np.random.default_rng(61)
        for _ in range(4):
            a = random_incomplete(4, 2, rng)
            m_warm, lam_warm = cr_optimal_completion(a)
            cold = np.array([2.5, -1.5])
            m_cold, lam_cold = cr_optimal_completion(a, initial_logs=cold)
            assert lam_cold == pytest.approx(lam_warm, abs=1e-8)
            assert np.max(np.abs(m_cold.entries - m_warm.entries)) <= 1e-3

    def test_lambda_never_below_n(self):
        rng = np.random.default_rng(67)
        for _ in range(6):
            n = int(rng.integers(4, 7))
            a = random_incomplete(n, 2, rng)
            _, lam = cr_optimal_completion(a)
            assert lam >= n - 1e-9
