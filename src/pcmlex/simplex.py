"""Dense two-phase simplex for small LPs, exposing optimal row duals.

Solves min c @ x subject to A @ x <= b, x >= 0. Pivoting follows Bland's
rule (smallest eligible index enters; ties in the ratio test leave by the
smallest basic variable index), which cannot cycle and makes every solve
deterministic. Problems here are desk scale, a few hundred rows at most, so
the tableau is kept dense and reduced costs are recomputed from scratch at
every pivot; that costs the same as the pivot itself and avoids drift.

Phase 1 (artificial variables for rows with b < 0) stays for general
callers; the lexicographic completion never needs it, because each of its
stage LPs is written in shifts from a feasible point, so every b >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailureError, InfeasibleProblemError, UnboundedProblemError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-9
RATIO_TIE_TOL = 1e-12
MAX_PIVOTS = 50_000  # per phase


@dataclass(frozen=True)
class SimplexResult:
    """Optimal basic solution of min c @ x, A @ x <= b, x >= 0."""

    x: np.ndarray
    objective: float
    duals: np.ndarray  # one per row; <= 0 on binding rows for this orientation
    iterations: int


def _pivot(T: np.ndarray, rhs: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    piv = T[row, col]
    T[row] /= piv
    rhs[row] /= piv
    factor = T[:, col].copy()
    factor[row] = 0.0
    T -= np.outer(factor, T[row])
    rhs -= factor * rhs[row]
    basis[row] = col


def _run_phase(
    T: np.ndarray,
    rhs: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    allowed: np.ndarray,
) -> tuple[str, int]:
    m = T.shape[0]
    for it in range(MAX_PIVOTS):
        reduced = cost - cost[basis] @ T
        reduced[basis] = 0.0
        candidates = np.flatnonzero(allowed & (reduced < -PIVOT_TOL))
        if candidates.size == 0:
            return "optimal", it
        enter = int(candidates[0])  # Bland: smallest eligible index
        col = T[:, enter]
        positive = col > PIVOT_TOL
        if not positive.any():
            return "unbounded", it
        ratios = np.full(m, np.inf)
        ratios[positive] = rhs[positive] / col[positive]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + RATIO_TIE_TOL * (1.0 + abs(best)))
        leave = int(ties[np.argmin(basis[ties])])
        _pivot(T, rhs, basis, leave, enter)
    raise ConvergenceFailureError(f"simplex exceeded {MAX_PIVOTS} pivots")


def solve_simplex(c, A, b) -> SimplexResult:
    """Two-phase simplex with duals from the optimal basis.

    Args:
        c: objective coefficients, length n.
        A: constraint matrix, shape (m, n), rows read as A_i @ x <= b_i.
        b: right-hand sides, length m.

    Returns:
        SimplexResult with primal x, objective, and per-row duals y; y_i is
        nonzero only on binding rows and satisfies c @ x = b @ y at optimum.

    Raises:
        InfeasibleProblemError / UnboundedProblemError: LP has no optimum.
        ConvergenceFailureError: ``MAX_PIVOTS`` pivots in one phase.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape

    # Equality form [A | I][x; s] = b; rows with negative rhs are scaled by
    # -1 and given an artificial variable so the starting basis is feasible.
    neg = b < 0
    n_art = int(neg.sum())
    ncols = n + m + n_art
    E = np.zeros((m, ncols))
    E[:, :n] = A
    E[:, n : n + m] = np.eye(m)
    sign = np.where(neg, -1.0, 1.0)
    E *= sign[:, None]
    rhs = b * sign
    art_cols = np.arange(n + m, ncols)
    basis = np.arange(n, n + m)
    k = n + m
    for i in np.flatnonzero(neg):
        E[i, k] = 1.0
        basis[i] = k
        k += 1

    T = E.copy()
    rhs_work = rhs.copy()
    total_iters = 0

    if n_art:
        cost1 = np.zeros(ncols)
        cost1[art_cols] = 1.0
        allowed = np.ones(ncols, dtype=bool)
        status, iters = _run_phase(T, rhs_work, basis, cost1, allowed)
        total_iters += iters
        if status == "unbounded":  # cannot happen: phase-1 objective >= 0
            raise InfeasibleProblemError("phase 1 reported unbounded")
        infeas = float(cost1[basis] @ rhs_work)
        if infeas > FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0))):
            raise InfeasibleProblemError(f"no feasible point (residual {infeas:.3e})")
        # Drive any zero-level artificial out of the basis, dropping rows
        # that turn out redundant.
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n + m:
                structural = np.flatnonzero(np.abs(T[i, : n + m]) > PIVOT_TOL)
                if structural.size:
                    _pivot(T, rhs_work, basis, i, int(structural[0]))
                else:
                    keep[i] = False
        if not keep.all():
            T = T[keep]
            rhs_work = rhs_work[keep]
            basis = basis[keep]
            E = E[keep]
            rhs = rhs[keep]
            sign_kept = sign[keep]
        else:
            sign_kept = sign
    else:
        sign_kept = sign

    cost2 = np.zeros(ncols)
    cost2[:n] = c
    allowed = np.ones(ncols, dtype=bool)
    allowed[art_cols] = False
    status, iters = _run_phase(T, rhs_work, basis, cost2, allowed)
    total_iters += iters
    if status == "unbounded":
        raise UnboundedProblemError("objective unbounded below")

    x_full = np.zeros(ncols)
    x_full[basis] = rhs_work
    x = x_full[:n]

    # Duals from the optimal basis of the (scaled) equality system, mapped
    # back to the original row orientation.
    B = E[:, basis]
    y_scaled = np.linalg.solve(B.T, cost2[basis])
    duals_kept = sign_kept * y_scaled
    if len(duals_kept) < m:
        duals = np.zeros(m)
        duals[np.flatnonzero(keep)] = duals_kept
    else:
        duals = duals_kept

    return SimplexResult(
        x=x,
        objective=float(c @ x),
        duals=duals,
        iterations=total_iters,
    )
