import math

import numpy as np
import pytest

import pcmlex.harness as harness
from pcmlex import (
    WeightVector,
    alpha_grid,
    build_dag,
    dag_to_incomplete_matrix,
    lex_optimal_completion,
    run_pipeline,
    saaty_lambda_max,
    sweep_alpha,
    verify_theorem1,
)
from pcmlex.errors import AlphaNotGreaterThanOneError


class TestPipeline:
    def test_lex_em_on_fig2_dag(self, fig2_dag):
        a = dag_to_incomplete_matrix(fig2_dag, 2.0)
        report = run_pipeline(a, "lex", "em")
        assert report.violations == []
        assert report.max_ti == pytest.approx(2.0, abs=1e-6)
        assert report.ki == pytest.approx(0.5, abs=1e-6)
        assert len(report.theta_prefix) == 5

    def test_lex_llsm_on_fig2_dag(self, fig2_dag):
        a = dag_to_incomplete_matrix(fig2_dag, 2.0)
        assert run_pipeline(a, "lex", "llsm").violations == []

    def test_gci_llsm_bad_pair_detected(self, fig2_dag):
        a = dag_to_incomplete_matrix(fig2_dag, 2.0)
        report = run_pipeline(a, "gci", "llsm")
        assert len(report.violations) >= 1

    def test_two_items_no_triad(self):
        # n = 2 takes the general path: an empty profile, max TI 1 and KI 0
        a = dag_to_incomplete_matrix(build_dag(2, [(0, 1)]), 3.0)
        for completion in ("lex", "gci", "cr"):
            report = run_pipeline(a, completion, "em")
            assert (report.max_ti, report.ki, report.theta_prefix) == (1.0, 0.0, ())

    def test_lambda_max_of_completion(self, fig2_dag):
        a = dag_to_incomplete_matrix(fig2_dag, 2.0)
        full, _ = lex_optimal_completion(a)
        for weighting in ("em", "llsm"):
            assert run_pipeline(a, "lex", weighting).lambda_max == saaty_lambda_max(full)

    def test_unknown_method_rejected(self, fig2_dag):
        a = dag_to_incomplete_matrix(fig2_dag, 2.0)
        with pytest.raises(ValueError):
            run_pipeline(a, "nope", "em")

    @pytest.mark.parametrize(
        "completion,weighting,eq_tol,message",
        [
            ("lex", "bogus", 1e-9, "unknown weighting method 'bogus'"),
            ("cr", "bogus", 1e-9, "unknown weighting method 'bogus'"),
            ("nope", "em", 1e-9, "unknown completion method 'nope'"),
            ("cr", "em", math.nan, "eq_tol must be finite"),
        ],
        ids=[
            "lex-bogus-unknown weighting method 'bogus'",
            "cr-bogus-unknown weighting method 'bogus'",
            "nope-em-unknown completion method 'nope'",
            "cr-em-eq_tol nan",
        ],
    )
    def test_method_names_checked_before_completion(
        self, monkeypatch, fig2_dag, completion, weighting, eq_tol, message
    ):
        calls = []

        def never(*args, **kwargs):
            calls.append(args)
            raise AssertionError("completion ran before the method names were checked")

        for name in ("lex_optimal_completion", "gci_optimal_completion", "cr_optimal_completion"):
            monkeypatch.setattr(harness, name, never)
        a = dag_to_incomplete_matrix(fig2_dag, 2.0)
        with pytest.raises(ValueError, match=message):
            run_pipeline(a, completion, weighting, eq_tol=eq_tol)
        with pytest.raises(ValueError, match=message):
            sweep_alpha(fig2_dag, completion, weighting, alphas=(2.0, 3.0), eq_tol=eq_tol)
        with pytest.raises(ValueError, match=message):
            sweep_alpha(fig2_dag, completion, weighting, alphas=(), eq_tol=eq_tol)
        assert calls == []


class TestVerifyTheorem1:
    def test_small_run_clean(self):
        summary = verify_theorem1(trials=30, n_max=6, alphas=(2.0, 5.0), seed=1)
        assert summary.passed
        assert summary.audits == 60

    def test_deterministic(self):
        a = verify_theorem1(trials=10, n_max=6, seed=5)
        b = verify_theorem1(trials=10, n_max=6, seed=5)
        assert a.audits == b.audits
        assert len(a.violation_failures) == len(b.violation_failures)

    def test_n2_trivially_clean(self):
        summary = verify_theorem1(trials=3, n_max=2, n_min=2, seed=9)
        assert summary.passed

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            (dict(trials=0, n_max=5), "trials"),
            (dict(trials=-1, n_max=5), "trials"),
            (dict(trials=3, n_max=4, n_min=6), "n_min"),
            (dict(trials=3, n_max=1, n_min=1), "n_min"),
            (dict(trials=3, n_max=5, alphas=()), "alphas"),
        ],
        ids=["no-trials", "negative-trials", "min-above-max", "n-below-two", "no-alphas"],
    )
    def test_rejects_empty_runs(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            verify_theorem1(**kwargs)

    def test_bad_alpha_rejected_before_any_completion(self, monkeypatch, fig2_dag):
        # every alpha is checked before the first trial or alpha, not when reached
        lex, calls = harness.lex_optimal_completion, []
        monkeypatch.setattr(harness, "lex_optimal_completion", lambda a: calls.append(a) or lex(a))
        with pytest.raises(AlphaNotGreaterThanOneError, match="alpha = 1.0 must exceed 1"):
            verify_theorem1(trials=5, n_max=5, alphas=(2.0, 5.0, 1.0))
        with pytest.raises(AlphaNotGreaterThanOneError, match="alpha = 0.5 must exceed 1"):
            sweep_alpha(fig2_dag, "lex", "em", alphas=(2.0, 3.0, 0.5))
        assert calls == []

    def test_violation_recorded(self, monkeypatch):
        # LLSM weights inverted rank every stated preference backwards: each
        # such audit is a violation failure, with its matrix and no error
        llsm = harness.llsm_weights

        def inverted(m):
            return WeightVector.from_raw(1.0 / llsm(m).w)

        monkeypatch.setattr(harness, "llsm_weights", inverted)
        summary = verify_theorem1(trials=4, n_max=5, seed=3)
        assert not summary.passed and not summary.solver_failures
        assert len(summary.violation_failures) == 4
        for fail in summary.violation_failures:
            assert fail.weighting == "llsm" and fail.error is None
            assert all(v.kind == "strict" for v in fail.violations) and fail.violations
            assert fail.matrix_text.startswith(f"{fail.n}\n")

    def test_gci_completion_fails_somewhere(self, fig2_dag):
        # sanity check that the harness can see violations at all: the
        # weight-ratio completion is known to break ordinal order on the
        # 7-vertex witness graph
        a = dag_to_incomplete_matrix(fig2_dag, 2.0)
        report = run_pipeline(a, "gci", "llsm")
        assert report.violations


class TestSweep:
    def test_alpha_grid_default(self):
        grid = alpha_grid()
        assert grid[0] == pytest.approx(1.1)
        assert grid[-1] == pytest.approx(10.0)
        assert len(grid) == 90

    @pytest.mark.parametrize(
        "start,stop,step",
        [
            (1.1, 10.0, 0.0),
            (1.1, 10.0, -0.1),
            (3.0, 2.0, 0.1),
            (1.1, 10.0, float("nan")),
            (1.1, float("inf"), 0.1),
            (1.1, 10.0, 1e-320),  # (stop - start) / step overflows to inf
            (1.1, 10.0, 1e-9),  # 8.9e9 points
        ],
    )
    def test_alpha_grid_rejects_empty_or_endless(self, start, stop, step):
        with pytest.raises(ValueError):
            alpha_grid(start, stop, step)

    def test_alpha_grid_point_limit(self, monkeypatch):
        # the error names the count; a grid of exactly the limit is allowed
        with pytest.raises(ValueError, match="alpha grid of inf points"):
            alpha_grid(1.1, 10.0, 1e-320)
        with pytest.raises(ValueError, match="alpha grid of 8900000001 points"):
            alpha_grid(1.1, 10.0, 1e-9)
        monkeypatch.setattr(harness, "ALPHA_GRID_MAX", 3)
        assert alpha_grid(2.0, 3.0, 0.5) == (2.0, 2.5, 3.0)
        with pytest.raises(ValueError, match="alpha grid of 5 points is above 3"):
            alpha_grid(2.0, 3.0, 0.25)

    @pytest.mark.parametrize("eq_tol", [float("nan"), -1.0])
    def test_sweep_rejects_bad_eq_tol_before_any_alpha(self, monkeypatch, fig2_dag, eq_tol):
        def never(*args, **kwargs):
            raise AssertionError("a pipeline ran before eq_tol was checked")

        monkeypatch.setattr(harness, "run_pipeline", never)
        with pytest.raises(ValueError, match="eq_tol"):
            sweep_alpha(fig2_dag, "gci", "llsm", alphas=(2.0, 3.0), eq_tol=eq_tol)

    def test_alpha_grid_single_point(self):
        assert alpha_grid(2.0, 2.0, 0.5) == (2.0,)

    def test_sweep_rows_structure(self, fig2_dag):
        rows = sweep_alpha(fig2_dag, "lex", "llsm", alphas=(2.0, 3.0))
        assert [r.alpha for r in rows] == [2.0, 3.0]
        assert all(r.method_pair == "lex+llsm" for r in rows)
        assert all(r.n_violations == 0 for r in rows)
        csv = rows[0].as_csv()
        assert csv.startswith("2,lex+llsm,0,")

    def test_sweep_deterministic(self, fig2_dag):
        first = sweep_alpha(fig2_dag, "gci", "llsm", alphas=(1.5, 2.5))
        second = sweep_alpha(fig2_dag, "gci", "llsm", alphas=(1.5, 2.5))
        assert [(r.alpha, r.n_violations, r.max_ti) for r in first] == [
            (r.alpha, r.n_violations, r.max_ti) for r in second
        ]

    def test_solver_failure_row(self, fig2_dag):
        # at alpha = 1e300 the GCI completion leaves float64: that row records
        # the failure and the sweep goes on
        rows = sweep_alpha(fig2_dag, "gci", "llsm", alphas=(2.0, 1e300, 3.0))
        assert [r.n_violations == -1 for r in rows] == [False, True, False]
        failed = rows[1]
        assert (failed.alpha, failed.method_pair) == (1e300, "gci+llsm")
        assert all(math.isnan(x) for x in (failed.max_ti, failed.ki, failed.lambda_max))
        assert failed.runtime_ms >= 0.0

    def test_gci_sweep_finds_violation(self, fig2_dag):
        rows = sweep_alpha(fig2_dag, "gci", "llsm", alphas=(1.5, 2.0, 4.0))
        assert any(r.n_violations >= 1 for r in rows)

    def test_single_arc_dag_never_violates(self):
        # n = 2 has nothing to distort: every method pair stays clean
        from pcmlex import build_dag

        g = build_dag(2, [(0, 1)])
        for completion in ("lex", "gci", "cr"):
            for weighting in ("em", "llsm"):
                rows = sweep_alpha(g, completion, weighting, alphas=(1.5, 3.0, 9.0))
                assert all(r.n_violations == 0 for r in rows)
