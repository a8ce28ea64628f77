import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import pcmlex.completion as completion
from pcmlex import (
    CompleteMatrix,
    IncompleteMatrix,
    TriadIndex,
    all_triads,
    alpha_grid,
    build_dag,
    cr_optimal_completion,
    dag_to_incomplete_matrix,
    eigenvector_weights,
    gci_optimal_completion,
    inconsistency_profile,
    is_consistent,
    incomplete_llsm_weights,
    lex_optimal_completion,
    random_cdag,
    ratio_matrix,
    run_pipeline,
    saaty_lambda_max,
    sweep_alpha,
    transitive_closure_matrix,
    validate_reciprocal,
)
from pcmlex.completion import build_lex_lp, solve_lp
from pcmlex.core import _perron, _with_pairs
from pcmlex.errors import (
    CompletionOverflowError,
    ConvergenceFailureError,
    DisconnectedComparisonGraphError,
    InvalidInputError,
    NoBindingDualFoundError,
)

from conftest import FIG2_ARCS_1BASED, random_incomplete, random_reciprocal, random_tree_matrix
from oracles import (
    cycle_structure,
    lex_highs_oracle,
    lex_less_equal,
    lex_stage,
    perron_root_batch,
    power_iteration_reference,
)

LN2 = math.log(2.0)
LN8 = math.log(8.0)

DISCONNECTED_4X4 = [
    [1, 2, None, None],
    [0.5, 1, None, None],
    [None, None, 1, 3],
    [None, None, 1 / 3, 1],
]


def _lp(a):
    """``build_lex_lp`` on a's own log entries, in the unit of the data."""
    return build_lex_lp(a, np.log(np.where(a.known, a.entries, 1.0)))


def _sums(a, logs=None):
    """(coef, const) of a's cycle sums on ``logs`` (a's own if None), by ``cycle_structure``."""
    _, _, const, coef = cycle_structure(a, logs)
    return coef, const


def _fixed(bound, coef):
    """(T,) bool, the triads whose cycle sum the cycle sums frozen in ``bound`` determine."""
    _, sv, vt = np.linalg.svd(coef[~np.isnan(bound)])  # full vt, also with no row
    free = vt[int(np.sum(sv > 1e-9)) :].T  # directions that keep every frozen cycle sum
    return np.all(np.abs(coef @ free) <= 1e-9, axis=1)


FIG2 = build_dag(7, [(i - 1, j - 1) for i, j in FIG2_ARCS_1BASED])


def _warm_start_inputs():
    cases = [pytest.param(FIG2, alpha, id=f"fig2-{alpha}") for alpha in (1.1, 5.0, 9.0)]
    return cases + [pytest.param(random_cdag(10, 0.3, 123), 5.0, id="cdag10-5.0")]


def _stage_inputs():
    """The warm-start DAG matrices and a few random incomplete matrices."""
    cases = [
        pytest.param(dag_to_incomplete_matrix(*p.values), id=p.id) for p in _warm_start_inputs()
    ]
    rng = np.random.default_rng(2029)
    for k in range(4):
        n = int(rng.integers(5, 8))
        a = random_incomplete(n, int(rng.integers(2, n)), rng)
        cases.append(pytest.param(a, id=f"random{k}-n{n}"))
    return cases


class TestBuildLexLp:
    def test_example2_structure(self, example2):
        state = _lp(example2)
        assert example2.missing_pairs == ((0, 2), (0, 3))
        assert len(state.triads) == 4
        # four active triads, one absolute-value pair of rows each
        assert int(np.isnan(state.bound).sum()) == 4

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedComparisonGraphError):
            _lp(validate_reciprocal(DISCONNECTED_4X4))

    def test_single_missing_3x3(self):
        a = validate_reciprocal([[1, 2, None], [0.5, 1, 4], [None, 0.25, 1]])
        state = _lp(a)
        assert int(np.isnan(state.bound).sum()) == 1
        sol = lex_stage(state, solve_lp(state), *_sums(a))
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        # the single free variable zeroes the only cycle sum: x13 = 2 * 4
        assert math.exp(sol.t[a.missing_pairs.index((0, 2))]) == pytest.approx(8.0, rel=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_cycle_sums_match_filled_matrix(self, seed):
        # the fresh tableau against cycle sums read off a filled matrix: a +s
        # row holds z0 - const and coef, so s = z0 - value + coef @ t; each
        # -s row is the exact negation of its +s row
        rng = np.random.default_rng(700 + seed)
        if seed == 0:
            a = validate_reciprocal([[1, 2, None], [0.5, 1, 4], [None, 0.25, 1]])
        else:
            n = int(rng.integers(4, 9))
            a = random_incomplete(n, int(rng.integers(1, (n - 1) * (n - 2) // 2 + 1)), rng)
        state = _lp(a)
        t = rng.normal(scale=2.0, size=len(a.missing_pairs))
        rows, cols = np.array(a.missing_pairs).T
        logs = np.log(_with_pairs(a.entries, rows, cols, np.exp(t)))
        i, j, k = np.array(state.triads).T
        expected = logs[i, j] + logs[j, k] - logs[i, k]
        m, plus, minus = len(t), state.tab[0::2], state.tab[1::2]
        sums = state.scale - plus[:, -2] + plus[:, :m] @ t
        tol = 1e-12 * max(1.0, state.scale)
        assert np.max(np.abs(sums - expected)) <= tol
        assert np.negative(plus[:, :m]).tobytes() == minus[:, :m].tobytes()

    def test_build_memory_is_the_tableau(self):
        # the +/-1 entries are written into the tableau itself: a dense
        # (T, m) coefficient matrix and its negation beside it would double
        # the peak
        a = dag_to_incomplete_matrix(random_cdag(20, 0.3, 123), 5.0)
        _lp(a)  # the cached triad table and missing index, outside the count
        tracemalloc.start()
        try:
            state = _lp(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * state.tab.nbytes


class TestSolveLp:
    def test_example2_first_stage(self, example2):
        state = _lp(example2)
        sol = lex_stage(state, solve_lp(state), *_sums(example2))
        assert sol.objective == pytest.approx(LN8, abs=1e-8)
        assert sol.objective / LN2 == pytest.approx(3.0, abs=1e-8)
        # the constant triad (2,3,4) carries the whole (negative) price
        assert sol.duals[state.triads.index(TriadIndex(1, 2, 3))] == pytest.approx(-1.0, abs=1e-9)
        active_sum = float(sol.duals.sum())
        assert active_sum == pytest.approx(-1.0, abs=1e-9)

    def test_example2_second_stage_unique(self, example2):
        state, sums = _lp(example2), _sums(example2)
        first = lex_stage(state, solve_lp(state), *sums)
        pos = state.triads.index(TriadIndex(1, 2, 3))
        assert first.priced.tolist() == [pos]
        state.freeze(pos, first.objective)
        second = lex_stage(state, solve_lp(state), *sums)
        assert second.objective == pytest.approx(LN2, abs=1e-8)
        assert second.t[example2.missing_pairs.index((0, 2))] / LN2 == pytest.approx(2.0, abs=1e-7)
        assert second.t[example2.missing_pairs.index((0, 3))] / LN2 == pytest.approx(3.0, abs=1e-7)

    def test_tree_objective_zero(self):
        rng = np.random.default_rng(3)
        a = random_tree_matrix(5, rng)
        state = _lp(a)
        sol = lex_stage(state, solve_lp(state), *_sums(a))
        assert sol.objective <= 1e-9

    @pytest.mark.parametrize("dag,alpha", _warm_start_inputs())
    def test_every_stage_starts_feasible(self, lex_runs, dag, alpha):
        # every stage starts where the last one ended, at a primal-feasible
        # basis (every basic slack >= 0; a basic t is free); it ends at a
        # certificate whose duals price only triads at the level, and whose
        # residual and gap on the original rows are small; the stage returns
        # the triads its certificate prices, and none on the last stage
        completion.lex_optimal_completion(dag_to_incomplete_matrix(dag, alpha))
        [run] = lex_runs
        z0 = run.state.scale
        assert len(run.stages) > 1
        for stage in run.stages:
            sol = stage.lex
            assert np.all(stage.slacks >= -1e-9 * z0)
            priced = np.abs(sol.duals) > completion.DUAL_TOL
            s = np.abs(run.const + run.coef @ sol.t)
            assert np.all(np.abs(s[priced] - sol.objective) <= 1e-9 * z0)
            assert sol.duals.sum() == pytest.approx(-1.0, abs=1e-9)
            last = sol.objective <= completion.OBJ_RTOL * z0
            assert sol.priced.tolist() == ([] if last else priced.nonzero()[0].tolist())
            assert sol.feasibility_residual <= 1e-9
            assert sol.duality_gap <= 1e-7

    @pytest.mark.parametrize("dag,alpha", _warm_start_inputs())
    def test_frozen_cycle_sums_stay_fixed(self, lex_runs, dag, alpha):
        # every later stage's point keeps each frozen |s| at its bound
        completion.lex_optimal_completion(dag_to_incomplete_matrix(dag, alpha))
        [run] = lex_runs
        for stage in run.stages:
            frozen = ~np.isnan(stage.bound)
            s = np.abs((run.const + run.coef @ stage.lex.t)[frozen])
            assert np.all(np.abs(s - stage.bound[frozen]) <= completion.OBJ_RTOL * run.state.scale)
        assert len(run.stages) > 2  # each stage after the first follows a freeze

    @pytest.mark.parametrize("a", _stage_inputs())
    def test_pinned_triads_freeze_in_their_stage(self, lex_runs, a):
        # an active triad that the frozen ones pin at the last stage's level
        # blocks the next stage at once: that stage keeps the level, takes no
        # pivot and prices every such triad
        _, audit = completion.lex_optimal_completion(a)
        [run] = lex_runs
        tol = completion.OBJ_RTOL * run.state.scale
        assert audit and len(run.stages) > 1
        for last, stage in zip(run.stages, run.stages[1:]):
            s = np.abs(run.const + run.coef @ last.lex.t)  # at the last stage's point
            at_level = np.abs(s - last.lex.objective) <= tol
            pinned = np.isnan(stage.bound) & _fixed(stage.bound, run.coef) & at_level
            if pinned.any():
                assert stage.pivots[0] == stage.pivots[1]
                assert abs(stage.lex.objective - last.lex.objective) <= tol
                assert np.all(np.abs(stage.lex.duals[pinned]) > completion.DUAL_TOL)

    @pytest.mark.parametrize("a", _stage_inputs())
    def test_no_lp_on_an_empty_basis(self, lex_runs, a):
        # the kernel counts one stage per certificate and every pivot it
        # takes; once the frozen cycle sums fix t (no free direction is
        # left), each remaining level is one certificate with no pivot
        completion.lex_optimal_completion(a)
        [run] = lex_runs
        assert run.state.stages == len(run.stages)
        assert run.state.pivots == sum(b - a for a, b in (s.pivots for s in run.stages))
        for stage in run.stages:
            if np.all(_fixed(stage.bound, run.coef)):
                assert stage.pivots[0] == stage.pivots[1]

    @staticmethod
    def _pinned_state(lex_runs, g, alpha):
        """The state of the one lex run on g at alpha, its stages counted as solve_lp calls.

        Deterministic under Bland's rule. That the run builds once and each
        call gets its state is ``test_tooling``'s per-stage check.
        """
        completion.lex_optimal_completion(dag_to_incomplete_matrix(g, alpha))
        [run] = lex_runs
        assert 1 < len(run.stages) == run.state.stages
        return run.state

    def test_pivot_count_pinned(self, lex_runs):
        # 39 pivots
        assert self._pinned_state(lex_runs, random_cdag(10, 0.3, 123), 5.0).pivots <= 45

    def test_lp_count_pinned(self, lex_runs):
        # 19 stages
        assert self._pinned_state(lex_runs, random_cdag(10, 0.3, 123), 5.0).stages <= 24

    def test_lp_count_pinned_n12(self, lex_runs):
        # 28 stages
        assert self._pinned_state(lex_runs, random_cdag(12, 0.3, 123), 5.0).stages <= 45

    @pytest.mark.parametrize(
        "g, alpha, max_stages, max_pivots",
        [
            (random_cdag(15, 0.3, 123), 5.0, 80, 100),  # 69 stages, 95 pivots
            *((FIG2, alpha, 10, math.inf) for alpha in (1.1, 5.0, 9.0)),  # 3 stages
        ],
        ids=["cdag15", "fig2-1.1", "fig2-5.0", "fig2-9.0"],
    )
    def test_stage_and_pivot_count_pinned(self, lex_runs, g, alpha, max_stages, max_pivots):
        state = self._pinned_state(lex_runs, g, alpha)
        assert state.stages <= max_stages and state.pivots <= max_pivots

    def test_pivot_budget_guard(self, monkeypatch, lex_runs):
        # a run that needs more pivots than MAX_PIVOTS stops with an error
        a = dag_to_incomplete_matrix(random_cdag(10, 0.3, 123), 5.0)
        completion.lex_optimal_completion(a)
        pivots = lex_runs[0].state.pivots
        monkeypatch.setattr(completion, "MAX_PIVOTS", pivots)
        completion._memo.clear()
        completion.lex_optimal_completion(a)
        monkeypatch.setattr(completion, "MAX_PIVOTS", pivots - 1)
        completion._memo.clear()
        with pytest.raises(ConvergenceFailureError, match="pivots"):
            completion.lex_optimal_completion(a)

    def test_no_tight_triad_raises(self, monkeypatch, example2):
        # all-zero duals at a positive objective that no constant triad
        # matches leave the batch empty; re-solving would repeat the stage
        calls = []

        def unpriced_lp(state):
            calls.append(1)
            if len(calls) > 5:
                raise AssertionError("lex loop re-solved an unchanged stage")
            level, _ = solve_lp(state)
            return 0.5 * level, np.empty(0, int)

        monkeypatch.setattr(completion, "solve_lp", unpriced_lp)
        with pytest.raises(NoBindingDualFoundError):
            completion.lex_optimal_completion(example2)
        assert len(calls) == 1

    def test_solution_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            a = random_incomplete(int(rng.integers(4, 6)), 2, rng)
            state = _lp(a)
            sol = lex_stage(state, solve_lp(state), *_sums(a))
            assert sol.feasibility_residual <= 1e-9
            assert sol.duality_gap <= 1e-7


class TestLexCompletion:
    def test_freeze_record_fields_repr_immutable(self, example2):
        _, audit = lex_optimal_completion(example2)
        rec = audit[0]
        assert isinstance(rec, completion.FreezeRecord)
        assert (rec.triad, rec.stage) == (TriadIndex(1, 2, 3), 1)
        assert rec.ti == pytest.approx(8.0, rel=1e-12)
        assert repr(rec) == f"FreezeRecord(triad=TriadIndex(i=1, j=2, k=3), ti={rec.ti!r}, stage=1)"
        for field, value in (("triad", TriadIndex(0, 1, 2)), ("ti", 1.0), ("stage", 2)):
            with pytest.raises(AttributeError):
                setattr(rec, field, value)
        assert rec == audit[0] and hash(rec) == hash(audit[0])

    def test_overflow_raises_before_exp(self):
        # on the chain 0 > 1 > 2, a_02 = alpha^2: at alpha = 1e300 its log,
        # 1381.55, is beyond float64, so the fill would warn and return inf
        # (the warning would fail this test as an error)
        # GCI and CR (whose start is the GCI fill) fail by the same check
        g = build_dag(3, [(0, 1), (1, 2)])
        for complete in (lex_optimal_completion, gci_optimal_completion, cr_optimal_completion):
            with pytest.raises(CompletionOverflowError, match=r"1381\.55.*pair \(0, 2\)"):
                complete(dag_to_incomplete_matrix(g, 1e300))
        assert issubclass(CompletionOverflowError, InvalidInputError)
        m, _ = lex_optimal_completion(dag_to_incomplete_matrix(g, 1e150))
        assert m[0, 2] == pytest.approx(1e300, rel=1e-9)
        assert m[2, 0] == pytest.approx(1e-300, rel=1e-9)
        m = gci_optimal_completion(dag_to_incomplete_matrix(g, 1e150))
        assert m[0, 2] == pytest.approx(1e300, rel=1e-9)
        assert m[2, 0] == pytest.approx(1e-300, rel=1e-9)

    def test_audit_ti_overflow_raises(self):
        # the known triad (0, 1, 2) has cycle sum 3 log 1e300 = 2072.3: its
        # TI, exp of that, is beyond float64 (math.exp raised OverflowError)
        a = validate_reciprocal(
            [[1, 1e300, 1e-300, None], [1e-300, 1, 1e300, 2], [1e300, 1e-300, 1, 3],
             [None, 0.5, 1 / 3, 1]]
        )
        with pytest.raises(CompletionOverflowError, match=r"2072\.3.*triad \(0, 1, 2\)"):
            lex_optimal_completion(a)

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

    def test_fig2_not_worse_than_closure(self, fig2_dag):
        alpha = 2.0
        a = dag_to_incomplete_matrix(fig2_dag, alpha)
        b, _ = lex_optimal_completion(a)
        theta_b = inconsistency_profile(b).theta
        theta_c = inconsistency_profile(transitive_closure_matrix(fig2_dag, alpha)).theta
        assert lex_less_equal(theta_b, theta_c, tol=1e-9)

    def test_monotone_audit(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            a = random_incomplete(int(rng.integers(4, 7)), int(rng.integers(1, 4)), rng)
            _, audit = lex_optimal_completion(a)
            tis = [f.ti for f in audit]
            assert all(x >= y - 1e-9 for x, y in zip(tis, tis[1:]))
            assert [f.stage for f in audit] == list(range(1, len(audit) + 1))

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

    @pytest.mark.parametrize("n", (12, 13))
    def test_matches_highs_oracle_at_scale(self, n):
        # random_cdag(n, 0.3, 123) at alpha = 5, past the sizes the corpus reaches
        _assert_matches_highs(dag_to_incomplete_matrix(random_cdag(n, 0.3, 123), 5.0))

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

    def test_all_ones_known_completes_to_ones(self):
        a = validate_reciprocal(
            [[1, 1, None, 1], [1, 1, 1, None], [None, 1, 1, 1], [1, None, 1, 1]]
        )
        m, audit = lex_optimal_completion(a)
        assert audit == []
        assert np.array_equal(m.entries, np.ones((4, 4)))

    def test_small_log_keeps_its_digits_next_to_a_large_one(self):
        # the unit-free logs are rounded relative to their own magnitude; on
        # one absolute grid, log 2 next to log 1e300 lost digits and a_13 was
        # 4e-12 off. Float64 is good to an ulp of the log (1.1e-13) here:
        # exp(log(2e300)) itself is 3.5e-14 off
        a = validate_reciprocal([[1, 2, None], [0.5, 1, 1e300], [None, 1e-300, 1]])
        m, audit = lex_optimal_completion(a)
        assert audit == []
        assert math.log(m.entries[0, 2]) == pytest.approx(math.log(2e300), abs=math.ulp(691.0))
        assert m.entries[0, 2] == pytest.approx(2e300, rel=1e-13)
        assert m.entries[2, 0] == pytest.approx(5e-301, rel=1e-13)

    @pytest.mark.parametrize("share", range(6))
    def test_transpose_and_relabel_equivariant(self, invariance_inputs, share):
        # lex's part of TestInvariance's check, on every sixth input but the last
        rng = np.random.default_rng(100 + share)
        for a in invariance_inputs[share:-1:6]:
            _assert_relabel_and_transpose_equivariant("lex", a, rng)

    def test_unique_under_triad_permutation(self, monkeypatch, lex_runs, invariance_inputs):
        rng = np.random.default_rng(17)
        for a in invariance_inputs[:-1]:
            _assert_triad_order_invariant(monkeypatch, lex_runs, a, rng)


class TestLexAtScale:
    """The last invariance input, ``random_cdag(15, 0.3, 123)`` at alpha = 5."""

    def test_relabel_and_triad_order_invariant_n15(self, monkeypatch, lex_runs, invariance_inputs):
        rng = np.random.default_rng(15)
        _assert_relabel_and_transpose_equivariant("lex", invariance_inputs[-1], rng)
        _assert_triad_order_invariant(monkeypatch, lex_runs, invariance_inputs[-1], rng)


class TestLexMemo:
    """The last lex run is kept by its unit-free input and reused by an equal one."""

    @staticmethod
    def _bytes(result):
        m, audit = result
        return m.entries.tobytes(), [(f.triad, f.ti, f.stage) for f in audit]

    def test_hit_is_bitwise_a_fresh_solve(self, lex_runs, fig2_dag):
        # memo empty, holding the same input, holding another input; and at
        # alpha = 5 reached from the memo of alpha = 2, whose unit-free logs are equal
        rng = np.random.default_rng(211)
        a, b = random_incomplete(6, 4, rng), random_incomplete(6, 4, rng)
        fresh = self._bytes(lex_optimal_completion(a))
        assert self._bytes(lex_optimal_completion(a)) == fresh
        lex_optimal_completion(b)
        assert self._bytes(lex_optimal_completion(a)) == fresh
        assert len(lex_runs) == 3 and len(completion._memo) == 1

        at5 = dag_to_incomplete_matrix(fig2_dag, 5.0)
        completion._memo.clear()
        fresh = self._bytes(lex_optimal_completion(at5))
        lex_optimal_completion(dag_to_incomplete_matrix(fig2_dag, 2.0))
        before = len(lex_runs)
        assert self._bytes(lex_optimal_completion(at5)) == fresh
        assert len(lex_runs) == before

        # a known 1 and a missing pair both have log 0: the mask tells them apart
        two_missing = [[1, 1, None, 1], [1, 1, 1, None], [None, 1, 1, 1], [1, None, 1, 1]]
        one_missing = [[1, 1, None, 1], [1, 1, 1, 1], [None, 1, 1, 1], [1, 1, 1, 1]]
        for raw in (two_missing, one_missing):
            m, _ = lex_optimal_completion(validate_reciprocal(raw))
            assert np.array_equal(m.entries, np.ones((4, 4)))
        assert len(lex_runs) == before + 2

    def test_one_solve_per_alpha_sweep(self, lex_runs, fig2_dag):
        perm = [3, 6, 0, 5, 1, 4, 2]
        relabelled = build_dag(7, [(perm[i], perm[j]) for i, j in fig2_dag.arcs])
        rows = sweep_alpha(fig2_dag, "lex", "em")
        assert len(rows) == 90 and all(r.n_violations == 0 for r in rows)
        assert len(lex_runs) == 1
        for alpha in alpha_grid():
            lex_optimal_completion(dag_to_incomplete_matrix(relabelled, alpha))
        assert len(lex_runs) == 2
        # two graphs in turn: each call's input differs from the one kept
        for alpha in alpha_grid():
            for g in (fig2_dag, relabelled):
                lex_optimal_completion(dag_to_incomplete_matrix(g, alpha))
        assert len(lex_runs) == 2 + 2 * 90

    def test_hit_raises_the_overflow_of_a_fresh_solve(self, lex_runs):
        # the chain 0 > 1 > 2 at alpha = 1e300 completes a_02 = alpha^2, beyond
        # float64: a fresh solve, then hits after the same input and after alpha = 2
        g = build_dag(3, [(0, 1), (1, 2)])
        errors = []
        for alpha in (1e300, 1e300, 2.0, 1e300):
            try:
                m, _ = lex_optimal_completion(dag_to_incomplete_matrix(g, alpha))
            except CompletionOverflowError as exc:
                errors.append(exc)
        assert len(lex_runs) == 1
        assert m[0, 2] == pytest.approx(4.0, rel=1e-12)
        assert errors[0].pair == (0, 2)
        assert [(e.pair, str(e)) for e in errors] == [(errors[0].pair, str(errors[0]))] * 3


@pytest.mark.parametrize(
    "complete", (lex_optimal_completion, gci_optimal_completion, cr_optimal_completion)
)
def test_disconnected_input_rejected(complete):
    with pytest.raises(DisconnectedComparisonGraphError):
        complete(validate_reciprocal(DISCONNECTED_4X4))


@pytest.mark.parametrize(
    "complete, message",
    [
        (lex_optimal_completion, "lexicographic completion needs"),
        (gci_optimal_completion, "GCI completion needs"),
        (cr_optimal_completion, "CR completion needs"),
        (incomplete_llsm_weights, "incomplete LLSM needs"),
    ],
    ids=["lex", "gci", "cr", "incomplete_llsm"],
)
def test_disconnected_input_names_the_entry(complete, message):
    with pytest.raises(DisconnectedComparisonGraphError, match=message):
        complete(validate_reciprocal(DISCONNECTED_4X4))


@pytest.mark.parametrize(
    "complete", (lex_optimal_completion, gci_optimal_completion, cr_optimal_completion)
)
def test_connectivity_checked_once(monkeypatch, fig2_dag, complete):
    calls = []
    check = IncompleteMatrix.comparison_graph_connected

    def counting(self):
        calls.append(self)
        return check(self)

    monkeypatch.setattr(IncompleteMatrix, "comparison_graph_connected", counting)
    complete(dag_to_incomplete_matrix(fig2_dag, 3.0))
    assert len(calls) == 1


METHODS = ("lex", "gci", "cr")
# per method: the tolerance on log entries, and that on what else it returns (lex TIs, CR lambda)
TOLERANCES = {"lex": (1e-9, dict(rel=1e-9)), "gci": (1e-12, {}), "cr": (1e-6, dict(abs=1e-12))}


def _complete(method, a):
    """(completion, values): the sorted audit TIs for lex, [lambda] for CR, [] for GCI."""
    if method == "lex":
        m, audit = lex_optimal_completion(a)
        return m, sorted(f.ti for f in audit)
    if method == "cr":
        m, lam = cr_optimal_completion(a)
        return m, [lam]
    return gci_optimal_completion(a), []


@pytest.fixture(scope="module")
def invariance_inputs():
    """Random incomplete matrices, and the DAG matrices of the witness graph at alpha 2 and 9
    and of random_cdag(15, 0.3, 123) at 5."""
    inputs = []
    for seed in range(100, 106):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 7))
        inputs.append(random_incomplete(n, int(rng.integers(1, 4)), rng))
    rng = np.random.default_rng(53)
    inputs += [random_incomplete(int(rng.integers(4, 8)), 3, rng) for _ in range(6)]
    rng = np.random.default_rng(11)
    inputs += [random_incomplete(5, 2, rng) for _ in range(10)]
    rng = np.random.default_rng(17)
    for _ in range(8):
        inputs.append(random_incomplete(5, 2, rng))
        rng.permutation(10)  # these 5 x 5 matrices interleave with draws of a triad order
    inputs.append(random_incomplete(6, 3, np.random.default_rng(43)))
    inputs += _cr_instances()
    inputs += [dag_to_incomplete_matrix(FIG2, alpha) for alpha in (2.0, 9.0)]
    return [*inputs, dag_to_incomplete_matrix(random_cdag(15, 0.3, 123), 5.0)]


class TestInvariance:
    """What every completion keeps, checked once for lex, GCI and CR, each at its tolerance.

    Lex's relabel, transpose and triad-order checks on these inputs are in
    ``TestLexCompletion`` and ``TestLexAtScale``.
    """

    @pytest.mark.parametrize("method", METHODS[1:])
    def test_relabel_and_transpose_equivariant(self, invariance_inputs, method):
        rng = np.random.default_rng(100)
        for a in invariance_inputs:
            _assert_relabel_and_transpose_equivariant(method, a, rng)

    @pytest.mark.parametrize("method", METHODS)
    def test_known_entries_and_reciprocity_exact(self, invariance_inputs, method):
        for a in invariance_inputs:
            m = _complete(method, a)[0].entries
            upper = np.triu_indices(a.n, 1)
            assert np.array_equal(m[a.known], a.entries[a.known])
            assert np.array_equal(m.T[upper], 1.0 / m[upper])

    @pytest.mark.parametrize("method", METHODS)
    def test_complete_input_identity(self, method):
        rngs = (np.random.default_rng(41), np.random.default_rng(53))
        full = [validate_reciprocal(random_reciprocal(4, rng).astype(object)) for rng in rngs]
        for a in [validate_reciprocal([[1, 2], [0.5, 1]]), *full]:
            m, values = _complete(method, a)
            assert np.array_equal(m.entries, a.entries)
            assert values == ([saaty_lambda_max(m)] if method == "cr" else [])

    @pytest.mark.parametrize("method", METHODS)
    def test_tree_completes_consistent(self, method):
        # a spanning tree fixes one consistent completion: no freeze, and lambda_max = n
        trees = []
        for seed, count, n_stop in ((7, 10, 8), (37, 8, 8), (47, 6, 7)):
            rng = np.random.default_rng(seed)
            trees += [random_tree_matrix(int(rng.integers(3, n_stop)), rng) for _ in range(count)]
        for a in trees:
            m, values = _complete(method, a)
            assert is_consistent(m, 1e-8 if method == "cr" else 1e-9)
            assert np.max(np.abs(m.entries - lex_optimal_completion(a)[0].entries)) <= 1e-9
            assert values == ([pytest.approx(a.n, abs=1e-8)] if method == "cr" else [])

    @pytest.mark.parametrize(
        "method, graphs, alphas",
        [
            ("lex", [FIG2], (1 + 1e-10, 1.1, 2.0, 9.0)),
            (
                "gci",
                [FIG2, *(random_cdag(*args) for args in [(6, 0.5, 1), (8, 0.3, 2), (12, 0.4, 3)])],
                (1.5, 9.0),
            ),
        ],
        ids=METHODS[:2],
    )
    def test_dag_exponents_alpha_free(self, method, graphs, alphas):
        # every known log entry is +/- log alpha, so the completion is alpha ** E
        # for one exponent matrix E at every alpha, and lex freezes as often,
        # down to alpha near 1, where every cycle sum is tiny
        for g in graphs:
            m, values = _complete(method, dag_to_incomplete_matrix(g, 5.0))
            exponents = np.log(m.entries) / math.log(5.0)
            assert bool(values) == (method == "lex")  # lex's freeze counts are compared
            for alpha in alphas:
                m, got = _complete(method, dag_to_incomplete_matrix(g, alpha))
                e = np.log(m.entries) / math.log(alpha)
                assert np.max(np.abs(e - exponents)) <= TOLERANCES[method][0]
                assert len(got) == len(values)


def _assert_relabel_and_transpose_equivariant(method, a, rng):
    """Relabelling a's items by a permutation from rng, or transposing a, does the same
    to ``method``'s completion, at its tolerance."""
    log_tol, value_tol = TOLERANCES[method]
    m, values = _complete(method, a)
    logs = np.log(m.entries)
    perm = rng.permutation(a.n)
    inv = np.argsort(perm)
    for b, expected in ((_permuted(a, perm), logs[np.ix_(inv, inv)]), (_transposed(a), logs.T)):
        got, got_values = _complete(method, b)
        assert np.max(np.abs(np.log(got.entries) - expected)) <= log_tol
        assert got_values == pytest.approx(values, **value_tol)


def _assert_triad_order_invariant(monkeypatch, lex_runs, a, rng):
    """Lex on a with its triads in an order from rng: the optimum is unique, and the
    canonical audit order hides which triad of a tie froze first."""
    m, audit = lex_optimal_completion(a)
    triads = shuffled = all_triads(a.n)
    while shuffled == triads:
        shuffled = [triads[int(k)] for k in rng.permutation(len(triads))]
    table = (tuple(shuffled), np.array(shuffled, dtype=int).reshape(-1, 3))
    with monkeypatch.context() as mp:
        mp.setattr(completion, "_triad_table", lambda n: table)
        completion._memo.clear()
        got, audit_t = lex_optimal_completion(a)
    assert lex_runs[-1].state.triads == tuple(shuffled)
    assert np.max(np.abs(np.log(got.entries) - np.log(m.entries))) <= 1e-9
    assert [(f.triad, f.stage) for f in audit_t] == [(f.triad, f.stage) for f in audit]
    assert [f.ti for f in audit_t] == pytest.approx([f.ti for f in audit], rel=1e-12)


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
    raw[np.ix_(perm, perm)] = np.where(a.known, a.entries, None)
    return validate_reciprocal(raw)


def _transposed(a):
    """The incomplete matrix with every comparison reversed."""
    raw = np.where(a.known, a.entries, None).T
    return validate_reciprocal(raw)


def _cr_instances():
    rng = np.random.default_rng(73)
    for _ in range(8):
        n = int(rng.integers(4, 7))
        yield random_incomplete(n, int(rng.integers(1, 4)), rng)


@pytest.fixture
def cr_counts(monkeypatch):
    """Count CR work: ``np.linalg.eig`` calls, and per ``_cr_point`` call its Hessian assemblies.

    ``hessians`` has one entry per CR point, so its length counts the points.
    """
    counts = SimpleNamespace(eig=0, hessians=[])
    eig, point = np.linalg.eig, completion._cr_point

    def counting_eig(a):
        counts.eig += 1
        return eig(a)

    def counting_point(*args):
        *rest, hessian = point(*args)
        k = len(counts.hessians)
        counts.hessians.append(0)

        def counted():
            counts.hessians[k] += 1
            return hessian()

        return (*rest, counted)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    monkeypatch.setattr(completion, "_cr_point", counting_point)
    return counts


class TestCrCompletion:
    def test_stationary_and_no_worse_than_gci(self, fig2_dag):
        fig2 = [dag_to_incomplete_matrix(fig2_dag, alpha) for alpha in (1.5, 2.0, 5.0, 9.0)]
        for a in [*_cr_instances(), *fig2]:
            m, lam = cr_optimal_completion(a)
            x = m.entries
            v, u = power_iteration_reference(x)[0], power_iteration_reference(x.T)[0]
            for i, j in a.missing_pairs:
                grad = (u[i] * x[i, j] * v[j] - u[j] * x[j, i] * v[i]) / (u @ v)
                assert abs(grad) <= 1e-6
            assert lam <= perron_root_batch(gci_optimal_completion(a).entries[None])[0] + 1e-12

    @pytest.mark.parametrize("alpha", [30.0, 50.0, 100.0])
    def test_converges_at_large_alpha(self, cr_counts, alpha):
        # BFGS ran out of its 200 steps here from alpha = 30
        a = dag_to_incomplete_matrix(random_cdag(12, 0.3, 0), alpha)
        m, lam = cr_optimal_completion(a)
        x = m.entries
        v, u = power_iteration_reference(x)[0], power_iteration_reference(x.T)[0]
        for i, j in a.missing_pairs:
            grad = (u[i] * x[i, j] * v[j] - u[j] * x[j, i] * v[i]) / (u @ v)
            assert abs(grad) <= 1e-6
        assert lam <= saaty_lambda_max(gci_optimal_completion(a)) + 1e-12
        assert len(cr_counts.hessians) <= 10

    def test_hessian_matches_central_differences(self, fig2_dag):
        rng = np.random.default_rng(83)
        fig2 = [dag_to_incomplete_matrix(fig2_dag, alpha) for alpha in (2.0, 9.0)]
        h = 1e-5
        for a in [*_cr_instances(), *fig2]:
            base = gci_optimal_completion(a).entries
            rows, cols = np.array(a.missing_pairs).T
            t = np.log(base[rows, cols]) + rng.normal(scale=0.5, size=len(rows))
            hessian = completion._cr_point(a, t)[4]()
            fd = np.empty_like(hessian)
            for k in range(len(t)):
                e = np.zeros(len(t))
                e[k] = h
                plus = completion._cr_point(a, t + e)[1]
                minus = completion._cr_point(a, t - e)[1]
                fd[:, k] = (plus - minus) / (2 * h)
            assert np.max(np.abs(hessian - fd)) <= 1e-6 * np.max(np.abs(hessian))
            # log lambda_max is convex in the log entries
            assert np.linalg.eigvalsh(hessian).min() >= -1e-12 * np.max(np.abs(hessian))

    def test_left_vector_at_a_consistent_matrix(self):
        # np.linalg.eig gave this matrix an eigenvector matrix of condition
        # number 1.7e16; the row of its inverse for the Perron root missed u
        # by 5e-3
        m = ratio_matrix([0.3, 1.7, 2.2, 5.0, 9.0, 1.1]).entries
        v, lam = _perron(m)
        u, _ = completion._left_perron(m, v, lam)
        assert u @ v == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(u / u.sum() - power_iteration_reference(m.T)[0])) <= 1e-12

    def test_cold_starts_reach_the_warm_lambda(self, monkeypatch, fig2_dag):
        rng = np.random.default_rng(89)
        fig2 = [dag_to_incomplete_matrix(fig2_dag, alpha) for alpha in (2.0, 9.0)]
        for a in [*_cr_instances(), *fig2]:
            _, lam = cr_optimal_completion(a)
            for _ in range(3):
                cold = 10.0 * rng.normal(size=len(a.missing_pairs))
                with monkeypatch.context() as mp:
                    mp.setattr(completion, "_gci_logs", lambda a: cold)
                    _, lam_cold = cr_optimal_completion(a)
                assert lam_cold == pytest.approx(lam, rel=1e-9)

    def test_warm_solves_take_few_newton_steps(self, cr_counts, fig2_dag):
        fig2 = [dag_to_incomplete_matrix(fig2_dag, alpha) for alpha in (1.5, 2.0, 5.0, 9.0)]
        cdag = dag_to_incomplete_matrix(random_cdag(12, 0.3, 0), 9.0)
        hessians = cr_counts.hessians
        for a in [*_cr_instances(), *fig2, cdag]:
            start = len(hessians)
            cr_optimal_completion(a)
            assert sum(hessians[start:]) <= 8
            assert hessians[-1] == 0  # the converged point needs none

    def test_initialization_independent(self, monkeypatch):
        rng = np.random.default_rng(61)
        for _ in range(4):
            a = random_incomplete(4, 2, rng)
            m_warm, lam_warm = cr_optimal_completion(a)
            with monkeypatch.context() as mp:
                mp.setattr(completion, "_gci_logs", lambda a: np.array([2.5, -1.5]))
                m_cold, lam_cold = cr_optimal_completion(a)
            assert lam_cold == pytest.approx(lam_warm, abs=1e-8)
            assert np.max(np.abs(m_cold.entries - m_warm.entries)) <= 1e-3

    def test_lambda_never_below_n(self):
        rng = np.random.default_rng(67)
        for _ in range(6):
            n = int(rng.integers(4, 7))
            a = random_incomplete(n, 2, rng)
            _, lam = cr_optimal_completion(a)
            assert lam >= n - 1e-9

    def test_initial_logs_beyond_float64_raise(self, monkeypatch):
        # exp(800) overflowed to inf, and the eigensolve then failed with
        # ConvergenceFailureError; the fill of every CR point now names the pair
        a = dag_to_incomplete_matrix(build_dag(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 3.0)
        monkeypatch.setattr(completion, "_gci_logs", lambda a: np.full(len(a.missing_pairs), 800.0))
        with pytest.raises(CompletionOverflowError, match=r"800.*pair \(0, 2\)"):
            cr_optimal_completion(a)


class TestCrPerronPair:
    """The CR completion hands its final Perron pair to EM and lambda_max."""

    @staticmethod
    def _incomplete(fig2_dag):
        fig2 = [dag_to_incomplete_matrix(fig2_dag, alpha) for alpha in (2.0, 9.0)]
        cdags = [dag_to_incomplete_matrix(random_cdag(8, 0.4, seed), 5.0) for seed in range(3)]
        return [*fig2, *cdags]

    @staticmethod
    def _complete():
        rng = np.random.default_rng(97)
        return [validate_reciprocal(random_reciprocal(n, rng)) for n in (3, 5, 8)]

    def test_one_eigendecomposition_per_cr_point(self, cr_counts, fig2_dag):
        for a in self._incomplete(fig2_dag):
            eig, points = cr_counts.eig, len(cr_counts.hessians)
            m, lam = cr_optimal_completion(a)
            em = eigenvector_weights(m)
            assert saaty_lambda_max(m) == em.lambda_max == lam
            assert cr_counts.eig - eig == len(cr_counts.hessians) - points > 0

    def test_complete_input_one_eigendecomposition(self, cr_counts):
        for k, a in enumerate(self._complete(), 1):
            m, lam = cr_optimal_completion(a)
            assert eigenvector_weights(m).lambda_max == saaty_lambda_max(m) == lam
            assert cr_counts.eig == len(cr_counts.hessians) == k

    @pytest.mark.parametrize("weighting", ["em", "llsm"])
    def test_pipeline_one_eigendecomposition_per_cr_point(self, cr_counts, fig2_dag, weighting):
        for a in self._incomplete(fig2_dag):
            eig, points = cr_counts.eig, len(cr_counts.hessians)
            run_pipeline(a, "cr", weighting)
            assert cr_counts.eig - eig == len(cr_counts.hessians) - points > 0

    def test_attached_pair_is_bitwise_a_fresh_solve(self, fig2_dag):
        for a in [*self._incomplete(fig2_dag), *self._complete()]:
            m, lam = cr_optimal_completion(a)
            assert "_perron_pair" in vars(m)  # attached, not computed on this read
            w, lam_attached = m._perron_pair
            w_fresh, lam_fresh = _perron(m.entries)
            assert w.tobytes() == w_fresh.tobytes()
            assert lam_attached == lam_fresh == lam

    def test_equality_ignores_the_pair(self, fig2_dag):
        m, _ = cr_optimal_completion(dag_to_incomplete_matrix(fig2_dag, 5.0))
        bare = CompleteMatrix._trusted(m.entries.copy())  # shares no array with m
        assert "_perron_pair" in vars(m) and "_perron_pair" not in vars(bare)
        assert [f.name for f in dataclasses.fields(CompleteMatrix)] == ["n", "entries"]
        assert m == bare and bare == m
        assert repr(m) == repr(bare)
        eigenvector_weights(bare)
        assert "_perron_pair" in vars(bare) and m == bare
        assert m != CompleteMatrix._trusted(m.entries[:3, :3])
