"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
appear; every tolerance and runtime budget is asserted, not just printed.
"""

import math
import time

import numpy as np
import pytest

from pcmlex import (
    CompleteMatrix,
    TriadIndex,
    build_dag,
    check_ordinal_violation,
    cr_optimal_completion,
    dag_to_incomplete_matrix,
    eigenvector_weights,
    gci_optimal_completion,
    inconsistency_profile,
    is_consistent,
    koczkodaj_ki,
    lemma3_check,
    lex_optimal_completion,
    llsm_weights,
    random_cdag,
    saaty_lambda_max,
    sweep_alpha,
    transitive_closure_matrix,
    validate_reciprocal,
    verify_theorem1,
)

from conftest import (
    EXAMPLE2_RAW,
    FIG2_ARCS_1BASED,
    random_incomplete,
    random_reciprocal,
    random_tree_matrix,
)
from oracles import cr_lambda_grid_oracle, lex_less_equal, lex_ti_grid_oracle
from test_weighting import plant_dominant_pair


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def fig2():
    return build_dag(7, [(i - 1, j - 1) for i, j in FIG2_ARCS_1BASED])


def test_criterion_01_worked_example_reproduction():
    start = time.perf_counter()
    a = validate_reciprocal(EXAMPLE2_RAW)
    m, audit = lex_optimal_completion(a)
    elapsed = time.perf_counter() - start

    ok = (
        abs(m[0, 2] - 4.0) <= 1e-6
        and abs(m[0, 3] - 8.0) <= 1e-6
        and len(audit) >= 2
        and audit[0].triad == TriadIndex(1, 2, 3)
        and abs(audit[0].ti - 8.0) <= 8.0 * 1e-8  # stage 1 objective = log 8
        and abs(math.log(audit[0].ti) - math.log(8.0)) <= 1e-8
        and abs(math.log(audit[1].ti) - math.log(2.0)) <= 1e-8  # stage 2 = log 2
        and elapsed < 1.0
    )
    report(
        1,
        "worked example",
        ok,
        f"x13={m[0, 2]:.9f} x14={m[0, 3]:.9f} "
        f"stage1={math.log(audit[0].ti) / math.log(2):.9f}log2 "
        f"stage2={math.log(audit[1].ti) / math.log(2):.9f}log2 "
        f"first_freeze={tuple(x + 1 for x in audit[0].triad)} {elapsed * 1e3:.0f}ms",
    )


def test_criterion_02_ordinal_cleanness_fuzz():
    start = time.perf_counter()
    summary = verify_theorem1(trials=1000, n_max=8, alphas=(2.0, 5.0, 9.0), seed=20240901)
    elapsed = time.perf_counter() - start
    ok = (
        summary.audits == 2000
        and not summary.violation_failures
        and not summary.solver_failures
        and elapsed < 120.0
    )
    report(
        2,
        "lex completion never violates ordinal order",
        ok,
        f"audits={summary.audits} violations={len(summary.violation_failures)} "
        f"solver_failures={len(summary.solver_failures)} {elapsed:.1f}s",
    )


def test_criterion_03_weight_ratio_counterexample():
    start = time.perf_counter()
    g = fig2()
    alphas = tuple(round(1.1 + 0.1 * k, 12) for k in range(90))
    gci_rows = sweep_alpha(g, "gci", "llsm", alphas)
    lex_rows = sweep_alpha(g, "lex", "llsm", alphas)
    elapsed = time.perf_counter() - start
    gci_hits = [r.alpha for r in gci_rows if r.n_violations >= 1]
    lex_clean = all(r.n_violations == 0 for r in lex_rows)
    ok = bool(gci_hits) and lex_clean and elapsed < 60.0
    report(
        3,
        "GCI completion + LLSM violates, lex never does",
        ok,
        f"gci_violation_alphas={len(gci_hits)} (first={gci_hits[0] if gci_hits else None}) "
        f"lex_all_clean={lex_clean} {elapsed:.1f}s",
    )


def test_criterion_04_eigenvalue_counterexample():
    start = time.perf_counter()
    g = fig2()
    alphas = tuple(round(1.1 + 0.1 * k, 12) for k in range(90))
    witness = None
    for alpha in alphas:  # ascending scan, first hit suffices
        a = dag_to_incomplete_matrix(g, alpha)
        m, _ = cr_optimal_completion(a)
        w = eigenvector_weights(m).weights
        if check_ordinal_violation(a, w):
            witness = alpha
            break
    if witness is None:
        # fall back to random graphs, where the witnessing instance may live
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(7, 10))
            gr = random_cdag(n, float(rng.uniform(0.2, 0.8)), int(rng.integers(0, 2**31)))
            for alpha in (1.1, 1.3, 1.5, 2.0, 3.0, 5.0, 9.0):
                a = dag_to_incomplete_matrix(gr, alpha)
                m, _ = cr_optimal_completion(a)
                w = eigenvector_weights(m).weights
                if check_ordinal_violation(a, w):
                    witness = (n, alpha)
                    break
            if witness:
                break
    lex_rows = sweep_alpha(g, "lex", "em", alphas)
    lex_clean = all(r.n_violations == 0 for r in lex_rows)
    elapsed = time.perf_counter() - start
    ok = witness is not None and lex_clean
    report(
        4,
        "CR completion + EM violates, lex never does",
        ok,
        f"witness_alpha={witness} lex_all_clean={lex_clean} {elapsed:.1f}s",
    )


def test_criterion_05_lex_grid_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    worst_gap = 0.0
    for trial in range(50):
        n = 4 if trial % 2 == 0 else 5
        n_missing = int(rng.integers(1, 3))
        a = random_incomplete(n, n_missing, rng)
        m, _ = lex_optimal_completion(a)
        theta = inconsistency_profile(m).theta
        oracle_theta, _ = lex_ti_grid_oracle(a, step=0.02, refine_rounds=2)
        if not lex_less_equal(theta, oracle_theta, tol=1e-3):
            report(
                5,
                "lex completion beats the grid search",
                False,
                f"trial {trial}: {theta[:4]} > {oracle_theta[:4]}",
            )
        worst_gap = max(worst_gap, float(np.max(theta - oracle_theta)))
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    report(
        5,
        "lex completion beats the grid search",
        ok,
        f"50 instances, worst componentwise excess {worst_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_cr_grid_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(43)
    worst = 0.0
    for trial in range(20):
        n = 4 if trial % 2 == 0 else 5
        a = random_incomplete(n, int(rng.integers(1, 3)), rng)
        _, lam = cr_optimal_completion(a)
        lam_grid, _ = cr_lambda_grid_oracle(a, step=0.1, refine_rounds=2)
        worst = max(worst, abs(lam - lam_grid))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 60.0
    report(
        6,
        "CR completion matches the eigenvalue grid",
        ok,
        f"20 instances, worst |lambda gap| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_07_closure_bound_and_fig2_values():
    start = time.perf_counter()
    rng = np.random.default_rng(47)
    worst = -np.inf
    for trial in range(200):
        g = random_cdag(int(rng.integers(3, 10)), float(rng.uniform(0.15, 0.9)), trial)
        for alpha in (2.0, 5.0, 9.0):
            c = transitive_closure_matrix(g, alpha)
            worst = max(worst, inconsistency_profile(c).max_ti - alpha)
    bound_ok = worst <= 1e-9

    c = transitive_closure_matrix(fig2(), 2.0)
    prof = inconsistency_profile(c)
    ones = {t for t, v in prof.triad_map.items() if abs(v - 1.0) <= 1e-12}
    pattern_ok = ones == {TriadIndex(i, 5, 6) for i in range(5)} and all(
        abs(v - 2.0) <= 1e-12 for t, v in prof.triad_map.items() if t not in ones
    )
    elapsed = time.perf_counter() - start
    ok = bound_ok and pattern_ok
    report(
        7,
        "closure matrix triad bound",
        ok,
        f"600 closures, max TI-alpha={worst:.2e}, witness-graph pattern={pattern_ok}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_ki_ti_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        m = CompleteMatrix.from_array(random_reciprocal(n, rng))
        worst = max(
            worst, abs(koczkodaj_ki(m) - (1.0 - 1.0 / inconsistency_profile(m).max_ti))
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12
    report(8, "KI equals 1 - 1/max TI", ok, f"1000 matrices, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_09_consistent_recovery_on_trees():
    start = time.perf_counter()
    rng = np.random.default_rng(59)
    worst_pair_gap = 0.0
    worst_lam_gap = 0.0
    worst_w_gap = 0.0
    all_consistent = True
    for _ in range(30):
        n = int(rng.integers(3, 9))
        a = random_tree_matrix(n, rng)
        lex_m, audit = lex_optimal_completion(a)
        gci_m = gci_optimal_completion(a)
        cr_m, cr_lam = cr_optimal_completion(a)
        worst_pair_gap = max(
            worst_pair_gap,
            float(np.max(np.abs(lex_m.entries - gci_m.entries))),
            float(np.max(np.abs(lex_m.entries - cr_m.entries))),
        )
        all_consistent &= is_consistent(lex_m, 1e-9) and is_consistent(gci_m, 1e-9)
        worst_lam_gap = max(
            worst_lam_gap, abs(saaty_lambda_max(lex_m) - n), abs(cr_lam - n)
        )
        em = eigenvector_weights(lex_m).weights.w
        ll = llsm_weights(lex_m).w
        worst_w_gap = max(worst_w_gap, float(np.max(np.abs(em - ll))))
    elapsed = time.perf_counter() - start
    ok = (
        worst_pair_gap <= 1e-9
        and all_consistent
        and worst_lam_gap <= 1e-8
        and worst_w_gap <= 1e-9
    )
    report(
        9,
        "spanning trees recover the consistent completion",
        ok,
        f"30 trees: completion gap {worst_pair_gap:.2e}, lambda gap {worst_lam_gap:.2e}, "
        f"EM-LLSM gap {worst_w_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_10_dominance_forces_strict_order():
    start = time.perf_counter()
    rng = np.random.default_rng(61)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(3, 8))
        m, i, j = plant_dominant_pair(n, rng)
        assert lemma3_check(m, i, j)
        em = eigenvector_weights(m).weights.w
        ll = llsm_weights(m).w
        if not (em[i] - em[j] > 0 and ll[i] - ll[j] > 0):
            report(10, "dominant row outranks strictly", False, f"failed at n={n}")
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        10,
        "dominant row outranks strictly",
        checked == 500,
        f"{checked} planted instances, both methods strict, {elapsed:.1f}s",
    )
