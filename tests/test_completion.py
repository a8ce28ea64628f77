import dataclasses
import math
import tracemalloc

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
    cr_lambda_grid_oracle,
    cycle_structure,
    lex_highs_oracle,
    lex_less_equal,
    lex_stage,
    lex_ti_grid_oracle,
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


def _recording_builds(monkeypatch):
    """Record each ``build_lex_lp`` call as (state, coef, const), the last two from its logs."""
    builds = []
    build = completion.build_lex_lp

    def recording_build(a, logs):
        builds.append((build(a, logs), *_sums(a, logs)))
        return builds[-1][0]

    monkeypatch.setattr(completion, "build_lex_lp", recording_build)
    return builds


def _traced_lex(monkeypatch, a):
    """Lex completion of ``a``, solved afresh: its run state and every stage, in order."""
    builds, stages = _recording_builds(monkeypatch), []
    stage_lp = completion.solve_lp

    def recording_lp(state):
        result = stage_lp(state)
        stages.append(lex_stage(state, result, *builds[-1][1:]))
        return result

    monkeypatch.setattr(completion, "solve_lp", recording_lp)
    completion._memo.clear()
    completion.lex_optimal_completion(a)
    return builds[0][0], stages


def _reordered_triads(mp, triads):
    """Make ``build_lex_lp`` read ``triads`` as its triad table and the next lex call solve afresh.

    Returns the states it builds.
    """
    table = (tuple(triads), np.array(triads, dtype=int).reshape(-1, 3))
    states = []
    build = completion.build_lex_lp

    def recording_build(*args):
        states.append(build(*args))
        return states[-1]

    mp.setattr(completion, "_triad_table", lambda n: table)
    mp.setattr(completion, "build_lex_lp", recording_build)
    completion._memo.clear()
    return states


def _fixed(state, coef):
    """(T,) bool, the triads whose cycle sum the frozen triads' cycle sums determine."""
    _, sv, vt = np.linalg.svd(coef[~np.isnan(state.bound)])  # full vt, also with no row
    free = vt[int(np.sum(sv > 1e-9)) :].T  # directions that keep every frozen cycle sum
    return np.all(np.abs(coef @ free) <= 1e-9, axis=1)


def _warm_start_inputs():
    fig2 = build_dag(7, [(i - 1, j - 1) for i, j in FIG2_ARCS_1BASED])
    cases = [pytest.param(fig2, alpha, id=f"fig2-{alpha}") for alpha in (1.1, 5.0, 9.0)]
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
    def test_every_stage_starts_feasible(self, monkeypatch, dag, alpha):
        # every stage starts where the last one ended, at a primal-feasible
        # basis (every basic slack >= 0; a basic t is free); it ends at a
        # certificate whose duals price only triads at the level, and whose
        # residual and gap on the original rows are small; the stage returns
        # the triads its certificate prices, and none on the last stage
        stage_lp = completion.solve_lp
        builds, stages = _recording_builds(monkeypatch), []

        def checking_lp(state):
            x = state.tab[:, -2] - state.w * state.tab[:, -1]
            slack = state.basic >= len(state.nonbasic)
            assert np.all(x[slack] >= -1e-9 * state.scale)
            result = stage_lp(state)
            _, coef, const = builds[-1]
            sol = lex_stage(state, result, coef, const)
            stages.append(sol)
            priced = np.abs(sol.duals) > completion.DUAL_TOL
            s = np.abs(const + coef @ sol.t)
            assert np.all(np.abs(s[priced] - sol.objective) <= 1e-9 * state.scale)
            assert sol.duals.sum() == pytest.approx(-1.0, abs=1e-9)
            last = sol.objective <= completion.OBJ_RTOL * state.scale
            assert sol.priced.tolist() == ([] if last else priced.nonzero()[0].tolist())
            return result

        monkeypatch.setattr(completion, "solve_lp", checking_lp)
        completion.lex_optimal_completion(dag_to_incomplete_matrix(dag, alpha))
        assert len(stages) > 1
        for sol in stages:
            assert sol.feasibility_residual <= 1e-9
            assert sol.duality_gap <= 1e-7

    @pytest.mark.parametrize("dag,alpha", _warm_start_inputs())
    def test_frozen_cycle_sums_stay_fixed(self, monkeypatch, dag, alpha):
        # every later stage's point keeps each frozen |s| at its bound
        freeze, stage_lp = completion.LexLpState.freeze, completion.solve_lp
        builds, freezes, later = _recording_builds(monkeypatch), [], []

        def counting_freeze(state, pos, bound):
            freeze(state, pos, bound)
            freezes.append(bound)

        def checking_lp(state):
            result = stage_lp(state)
            _, coef, const = builds[-1]
            sol = lex_stage(state, result, coef, const)
            frozen = ~np.isnan(state.bound)
            s = np.abs((const + coef @ sol.t)[frozen])
            assert np.all(np.abs(s - state.bound[frozen]) <= completion.OBJ_RTOL * state.scale)
            later.append(int(frozen.sum()))
            return result

        monkeypatch.setattr(completion.LexLpState, "freeze", counting_freeze)
        monkeypatch.setattr(completion, "solve_lp", checking_lp)
        completion.lex_optimal_completion(dag_to_incomplete_matrix(dag, alpha))
        assert len(freezes) > 1 and max(later) > 0

    @pytest.mark.parametrize("a", _stage_inputs())
    def test_pinned_triads_freeze_in_their_stage(self, monkeypatch, a):
        # an active triad that the frozen ones pin at the last stage's level
        # blocks the next stage at once: that stage keeps the level, takes no
        # pivot and prices every such triad
        stage_lp = completion.solve_lp
        builds, levels, points = _recording_builds(monkeypatch), [], []

        def checking_lp(state):
            _, coef, const = builds[-1]
            pinned = np.zeros(len(state.triads), bool)
            if levels:
                s = np.abs(const + coef @ points[-1])  # at the last stage's point
                at_level = np.abs(s - levels[-1]) <= completion.OBJ_RTOL * state.scale
                pinned = np.isnan(state.bound) & _fixed(state, coef) & at_level
            pivots = state.pivots
            result = stage_lp(state)
            sol = lex_stage(state, result, coef, const)
            levels.append(sol.objective)
            points.append(sol.t)
            if pinned.any():
                assert state.pivots == pivots
                assert abs(sol.objective - levels[-2]) <= completion.OBJ_RTOL * state.scale
                assert np.all(np.abs(sol.duals[pinned]) > completion.DUAL_TOL)
            return result

        monkeypatch.setattr(completion, "solve_lp", checking_lp)
        _, audit = completion.lex_optimal_completion(a)
        assert audit and len(levels) > 1

    @pytest.mark.parametrize("a", _stage_inputs())
    def test_no_lp_on_an_empty_basis(self, monkeypatch, a):
        # the kernel counts one stage per certificate and every pivot it
        # takes; once the frozen cycle sums fix t (no free direction is
        # left), each remaining level is one certificate with no pivot
        stage_lp = completion.solve_lp
        builds, calls, idle = _recording_builds(monkeypatch), [], []

        def checking_lp(state):
            all_fixed = bool(np.all(_fixed(state, builds[-1][1])))
            pivots = state.pivots
            result = stage_lp(state)
            calls.append(state.pivots - pivots)
            if all_fixed:
                idle.append(state.pivots - pivots)
            return result

        monkeypatch.setattr(completion, "solve_lp", checking_lp)
        state, stages = _traced_lex(monkeypatch, a)
        assert state.stages == len(calls) == len(stages)
        assert state.pivots == sum(calls)
        assert idle == [0] * len(idle)

    @pytest.mark.parametrize("a", _stage_inputs())
    def test_diagnostics_read_after_the_run_are_the_stages_own(self, monkeypatch, a):
        # the residual and gap are computed when read; read only after the
        # whole run, each is still its stage's value, not one computed with
        # the bounds of triads frozen later
        stage_lp = completion.solve_lp
        builds, stages, expected = _recording_builds(monkeypatch), [], []

        def recording_lp(state):
            result = stage_lp(state)
            _, coef, const = builds[-1]
            sol = lex_stage(state, result, coef, const)
            s = np.abs(const + coef @ sol.t)
            off = np.where(np.isnan(state.bound), s - sol.objective, np.abs(s - state.bound))
            # a copy reads the stage's data now
            expected.append((float(np.max(off, initial=0.0)), dataclasses.replace(sol).duality_gap))
            stages.append(sol)
            return result

        monkeypatch.setattr(completion, "solve_lp", recording_lp)
        completion.lex_optimal_completion(a)
        assert len(stages) > 1
        assert [(sol.feasibility_residual, sol.duality_gap) for sol in stages] == expected

    def test_pivot_count_pinned(self, monkeypatch):
        # deterministic under Bland's rule: 39 pivots now, 48 when each log
        # entry was split into two signed columns, 302 over the 19 stage LPs
        # that each started a simplex from its slack basis, and about 40,000
        # with every stage LP started from t = 0
        a = dag_to_incomplete_matrix(random_cdag(10, 0.3, 123), 5.0)
        state, _ = _traced_lex(monkeypatch, a)
        assert state.pivots <= 45

    def test_pivot_budget_guard(self, monkeypatch):
        # a run that needs more pivots than MAX_PIVOTS stops with an error
        a = dag_to_incomplete_matrix(random_cdag(10, 0.3, 123), 5.0)
        state, _ = _traced_lex(monkeypatch, a)
        monkeypatch.setattr(completion, "MAX_PIVOTS", state.pivots)
        completion._memo.clear()
        completion.lex_optimal_completion(a)
        monkeypatch.setattr(completion, "MAX_PIVOTS", state.pivots - 1)
        completion._memo.clear()
        with pytest.raises(ConvergenceFailureError, match="pivots"):
            completion.lex_optimal_completion(a)

    def test_lp_count_pinned(self, monkeypatch):
        # each stage ends at a certificate and tied certificates freeze
        # together; 18 stages now, 19 LPs when each stage was its own LP, 30
        # when pinned triads waited one more LP and an empty basis still took
        # LPs, 77 with frozen triads kept as inequality rows, 108 with one
        # freeze per stage LP
        a = dag_to_incomplete_matrix(random_cdag(10, 0.3, 123), 5.0)
        state, stages = _traced_lex(monkeypatch, a)
        assert state.stages == len(stages) <= 24

    def test_lp_count_pinned_n12(self, monkeypatch):
        # 29 stages now, 39 LPs when each stage was its own LP, 55 when
        # pinned triads waited one more LP, 139 with frozen triads kept as
        # inequality rows
        a = dag_to_incomplete_matrix(random_cdag(12, 0.3, 123), 5.0)
        state, stages = _traced_lex(monkeypatch, a)
        assert state.stages == len(stages) <= 45
        _assert_matches_highs(a)

    @pytest.mark.parametrize("alpha", (1.1, 5.0, 9.0))
    def test_lp_count_pinned_witness(self, monkeypatch, fig2_dag, alpha):
        # 3 stages now, 9 LPs when each stage was its own LP, 15 when pinned
        # triads waited one more LP
        state, stages = _traced_lex(monkeypatch, dag_to_incomplete_matrix(fig2_dag, alpha))
        assert state.stages == len(stages) <= 10

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

    def test_unique_under_triad_permutation(self, monkeypatch):
        rng = np.random.default_rng(17)
        for trial in range(8):
            a = random_incomplete(5, 2, rng)
            base, audit = lex_optimal_completion(a)
            triads = all_triads(5)
            perm = [triads[int(k)] for k in rng.permutation(len(triads))]
            assert perm != triads
            with monkeypatch.context() as mp:
                states = _reordered_triads(mp, perm)
                permuted, audit_p = lex_optimal_completion(a)
            assert [s.triads for s in states] == [tuple(perm)]
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


class TestLexAtScale:
    """``random_cdag(n, 0.3, 123)`` at alpha = 5, past the sizes the corpus reaches."""

    @staticmethod
    def _matrix(n):
        return dag_to_incomplete_matrix(random_cdag(n, 0.3, 123), 5.0)

    def test_matches_highs_oracle_n13(self):
        _assert_matches_highs(self._matrix(13))

    def test_relabel_and_triad_order_invariant_n15(self, monkeypatch):
        a = self._matrix(15)
        base, audit = lex_optimal_completion(a)
        logs = np.log(base.entries)
        tis = sorted(f.ti for f in audit)
        rng = np.random.default_rng(15)

        perm = rng.permutation(a.n)
        relabelled, audit_p = lex_optimal_completion(_permuted(a, perm))
        inv = np.argsort(perm)
        assert np.max(np.abs(np.log(relabelled.entries) - logs[np.ix_(inv, inv)])) <= 1e-9
        assert sorted(f.ti for f in audit_p) == pytest.approx(tis, rel=1e-9)

        triads = all_triads(a.n)
        shuffled = [triads[int(k)] for k in rng.permutation(len(triads))]
        assert shuffled != triads
        states = _reordered_triads(monkeypatch, shuffled)
        permuted, audit_t = lex_optimal_completion(a)
        assert [s.triads for s in states] == [tuple(shuffled)]
        assert np.max(np.abs(np.log(permuted.entries) - logs)) <= 1e-9
        assert [(f.triad, f.stage) for f in audit_t] == [(f.triad, f.stage) for f in audit]
        assert [f.ti for f in audit_t] == pytest.approx([f.ti for f in audit], rel=1e-9)

    def test_stage_and_pivot_count_pinned_n15(self, monkeypatch):
        # 69 stages and 95 pivots now; 108 pivots when each log entry was
        # split into two signed columns, 72 stage LPs and 2,158 pivots when
        # each stage was its own LP
        state, stages = _traced_lex(monkeypatch, self._matrix(15))
        assert state.stages == len(stages) <= 80
        assert state.pivots <= 100


def _counting_builds(monkeypatch):
    """Count ``build_lex_lp`` calls, so the lex runs that were solved and not reused."""
    calls = []
    build = completion.build_lex_lp

    def counting(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(completion, "build_lex_lp", counting)
    return calls


class TestLexMemo:
    """The last lex run is kept by its unit-free input and reused by an equal one."""

    @staticmethod
    def _bytes(result):
        m, audit = result
        return m.entries.tobytes(), [(f.triad, f.ti, f.stage) for f in audit]

    def test_hit_is_bitwise_a_fresh_solve(self, monkeypatch, fig2_dag):
        # memo empty, holding the same input, holding another input; and at
        # alpha = 5 reached from the memo of alpha = 2, whose unit-free logs are equal
        builds = _counting_builds(monkeypatch)
        rng = np.random.default_rng(211)
        a, b = random_incomplete(6, 4, rng), random_incomplete(6, 4, rng)
        fresh = self._bytes(lex_optimal_completion(a))
        assert self._bytes(lex_optimal_completion(a)) == fresh
        lex_optimal_completion(b)
        assert self._bytes(lex_optimal_completion(a)) == fresh
        assert len(builds) == 3 and len(completion._memo) == 1

        at5 = dag_to_incomplete_matrix(fig2_dag, 5.0)
        completion._memo.clear()
        fresh = self._bytes(lex_optimal_completion(at5))
        lex_optimal_completion(dag_to_incomplete_matrix(fig2_dag, 2.0))
        before = len(builds)
        assert self._bytes(lex_optimal_completion(at5)) == fresh
        assert len(builds) == before

        # a known 1 and a missing pair both have log 0: the mask tells them apart
        two_missing = [[1, 1, None, 1], [1, 1, 1, None], [None, 1, 1, 1], [1, None, 1, 1]]
        one_missing = [[1, 1, None, 1], [1, 1, 1, 1], [None, 1, 1, 1], [1, 1, 1, 1]]
        for raw in (two_missing, one_missing):
            m, _ = lex_optimal_completion(validate_reciprocal(raw))
            assert np.array_equal(m.entries, np.ones((4, 4)))
        assert len(builds) == before + 2

    def test_one_solve_per_alpha_sweep(self, monkeypatch, fig2_dag):
        perm = [3, 6, 0, 5, 1, 4, 2]
        relabelled = build_dag(7, [(perm[i], perm[j]) for i, j in fig2_dag.arcs])
        builds = _counting_builds(monkeypatch)
        rows = sweep_alpha(fig2_dag, "lex", "em")
        assert len(rows) == 90 and all(r.n_violations == 0 for r in rows)
        assert len(builds) == 1
        for alpha in alpha_grid():
            lex_optimal_completion(dag_to_incomplete_matrix(relabelled, alpha))
        assert len(builds) == 2
        # two graphs in turn: each call's input differs from the one kept
        for alpha in alpha_grid():
            for g in (fig2_dag, relabelled):
                lex_optimal_completion(dag_to_incomplete_matrix(g, alpha))
        assert len(builds) == 2 + 2 * 90

    def test_hit_raises_the_overflow_of_a_fresh_solve(self, monkeypatch):
        # the chain 0 > 1 > 2 at alpha = 1e300 completes a_02 = alpha^2, beyond
        # float64: a fresh solve, then hits after the same input and after alpha = 2
        g = build_dag(3, [(0, 1), (1, 2)])
        builds = _counting_builds(monkeypatch)
        errors = []
        for alpha in (1e300, 1e300, 2.0, 1e300):
            try:
                m, _ = lex_optimal_completion(dag_to_incomplete_matrix(g, alpha))
            except CompletionOverflowError as exc:
                errors.append(exc)
        assert len(builds) == 1
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

    def test_relabel_equivariant(self, fig2_dag):
        rng = np.random.default_rng(53)
        fig2 = [dag_to_incomplete_matrix(fig2_dag, alpha) for alpha in (2.0, 9.0)]
        for a in [*(random_incomplete(int(rng.integers(4, 8)), 3, rng) for _ in range(6)), *fig2]:
            perm = rng.permutation(a.n)
            inv = np.argsort(perm)
            logs = np.log(gci_optimal_completion(a).entries)
            relabelled = gci_optimal_completion(_permuted(a, perm))
            assert np.max(np.abs(np.log(relabelled.entries) - logs[np.ix_(inv, inv)])) <= 1e-12

    def test_dag_exponents_alpha_invariant(self, fig2_dag):
        # every known log entry is +/- log alpha, so the least-squares logs
        # scale with it: log g / log alpha is one exponent matrix for all alpha
        cdags = [random_cdag(n, density, seed) for n, density, seed in [(6, 0.5, 1), (8, 0.3, 2)]]
        for g in [fig2_dag, *cdags, random_cdag(12, 0.4, 3)]:
            exponents = [
                np.log(gci_optimal_completion(dag_to_incomplete_matrix(g, alpha)).entries)
                / math.log(alpha)
                for alpha in (1.5, 5.0, 9.0)
            ]
            for e in exponents[1:]:
                assert np.max(np.abs(e - exponents[0])) <= 1e-12


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
            v, u = power_iteration_reference(x)[0], power_iteration_reference(x.T)[0]
            for i, j in a.missing_pairs:
                grad = (u[i] * x[i, j] * v[j] - u[j] * x[j, i] * v[i]) / (u @ v)
                assert abs(grad) <= 1e-6
            assert lam <= perron_root_batch(gci_optimal_completion(a).entries[None])[0] + 1e-12

    @staticmethod
    def _counting_cr_point(monkeypatch):
        """Record, per ``_cr_point`` call, how often its Hessian is assembled."""
        hessians = []
        point = completion._cr_point

        def counting(*args):
            *rest, hessian = point(*args)
            hessians.append(0)
            k = len(hessians) - 1

            def counted():
                hessians[k] += 1
                return hessian()

            return (*rest, counted)

        monkeypatch.setattr(completion, "_cr_point", counting)
        return hessians

    @pytest.mark.parametrize("alpha", [30.0, 50.0, 100.0])
    def test_converges_at_large_alpha(self, monkeypatch, alpha):
        # BFGS ran out of its 200 steps here from alpha = 30
        a = dag_to_incomplete_matrix(random_cdag(12, 0.3, 0), alpha)
        points = self._counting_cr_point(monkeypatch)
        m, lam = cr_optimal_completion(a)
        x = m.entries
        v, u = power_iteration_reference(x)[0], power_iteration_reference(x.T)[0]
        for i, j in a.missing_pairs:
            grad = (u[i] * x[i, j] * v[j] - u[j] * x[j, i] * v[i]) / (u @ v)
            assert abs(grad) <= 1e-6
        assert lam <= saaty_lambda_max(gci_optimal_completion(a)) + 1e-12
        assert len(points) <= 10

    def test_hessian_matches_central_differences(self, fig2_dag):
        rng = np.random.default_rng(83)
        fig2 = [dag_to_incomplete_matrix(fig2_dag, alpha) for alpha in (2.0, 9.0)]
        h = 1e-5
        for a in [*self._cr_instances(), *fig2]:
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
        for a in [*self._cr_instances(), *fig2]:
            _, lam = cr_optimal_completion(a)
            for _ in range(3):
                cold = 10.0 * rng.normal(size=len(a.missing_pairs))
                with monkeypatch.context() as mp:
                    mp.setattr(completion, "_gci_logs", lambda a: cold)
                    _, lam_cold = cr_optimal_completion(a)
                assert lam_cold == pytest.approx(lam, rel=1e-9)

    def test_warm_solves_take_few_newton_steps(self, monkeypatch, fig2_dag):
        fig2 = [dag_to_incomplete_matrix(fig2_dag, alpha) for alpha in (1.5, 2.0, 5.0, 9.0)]
        cdag = dag_to_incomplete_matrix(random_cdag(12, 0.3, 0), 9.0)
        hessians = self._counting_cr_point(monkeypatch)
        for a in [*self._cr_instances(), *fig2, cdag]:
            start = len(hessians)
            cr_optimal_completion(a)
            assert sum(hessians[start:]) <= 8
            assert hessians[-1] == 0  # the converged point needs none

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

    @staticmethod
    def _counting(monkeypatch):
        """Count ``np.linalg.eig`` calls and CR points."""
        counts = {"eig": 0, "point": 0}
        eig, point = np.linalg.eig, completion._cr_point

        def counting_eig(a):
            counts["eig"] += 1
            return eig(a)

        def counting_point(*args):
            counts["point"] += 1
            return point(*args)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        monkeypatch.setattr(completion, "_cr_point", counting_point)
        return counts

    def test_one_eigendecomposition_per_cr_point(self, monkeypatch, fig2_dag):
        counts = self._counting(monkeypatch)
        for a in self._incomplete(fig2_dag):
            before = dict(counts)
            m, lam = cr_optimal_completion(a)
            em = eigenvector_weights(m)
            assert saaty_lambda_max(m) == em.lambda_max == lam
            points = counts["point"] - before["point"]
            assert points > 0
            assert counts["eig"] - before["eig"] == points

    def test_complete_input_one_eigendecomposition(self, monkeypatch):
        counts = self._counting(monkeypatch)
        for k, a in enumerate(self._complete(), 1):
            m, lam = cr_optimal_completion(a)
            assert eigenvector_weights(m).lambda_max == saaty_lambda_max(m) == lam
            assert counts == {"eig": k, "point": k}

    @pytest.mark.parametrize("weighting", ["em", "llsm"])
    def test_pipeline_one_eigendecomposition_per_cr_point(self, monkeypatch, fig2_dag, weighting):
        counts = self._counting(monkeypatch)
        for a in self._incomplete(fig2_dag):
            before = dict(counts)
            run_pipeline(a, "cr", weighting)
            points = counts["point"] - before["point"]
            assert points > 0
            assert counts["eig"] - before["eig"] == points

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
